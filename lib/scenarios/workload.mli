(** Shared plumbing for the figure runners: collect a low-rate/high-rate
    trace pair from one system configuration and score the adversary's
    features on it. *)

type traces = {
  low : System.result;
  high : System.result;
  var_low : float;         (** full-trace PIAT variance under ω_l *)
  var_high : float;
  r_hat : float;           (** max(var_high/var_low, 1): the adversary's
                               offline estimate of the variance ratio *)
}

val run_pair :
  base:System.config -> run:(System.config -> System.result) -> traces
(** The one class pair: call [run] on ω_l's config ([base] at the
    calibration low payload rate) and on ω_h's ([base] at the high rate,
    seed [base.seed + 7919]), then measure r̂ from the two PIAT
    variances.  [run] is the per-class simulation: any [System.run*], or
    one that sets a per-class field from the config's rate.  The two runs
    go concurrently when {!Exec.Pool} has a free worker; parallelism is
    transparent — the result is bit-identical to the sequential
    computation. *)

val collect_pair : base:System.config -> piats:int -> traces
(** {!run_pair} with [System.run]: each class yields [piats]
    inter-arrival times.  Raises [Starvation.Tap_starved] /
    [Desim.Sim.Event_budget_exceeded] as {!System.run} does. *)

val classes : traces -> (string * float array) array
(** Labeled PIAT traces in (low, high) order, for {!Adversary.Detection}. *)

type scored = {
  feature : Adversary.Feature.kind;
  sample_size : int;
  empirical : float;        (** KDE-Bayes detection rate, held-out *)
  theory : float;           (** paper theorem at the measured r̂ *)
  n_test : int;             (** held-out trials behind [empirical] *)
  successes : int;          (** exact correct-classification count among
                                [n_test] (no rate-rounding involved) *)
}

val wilson95 : scored -> Stats.Confidence.interval
(** 95% Wilson interval on [successes]/[n_test] — the exact held-out
    counts carried through {!Adversary.Detection.result}, not a
    reconstruction from the prior-weighted rate (which is lossy when
    per-class test counts differ). *)

val pp_ci : scored -> string
(** "[lo, hi]" rendering of {!wilson95} for table cells. *)

val score :
  traces ->
  features:Adversary.Feature.kind list ->
  sample_size:int ->
  scored list
(** Empirical detection via {!Adversary.Detection.estimate_features}
    (reference = the calibration timer mean) paired with the matching
    closed-form value at [r_hat]. *)

val theory_of : feature:Adversary.Feature.kind -> r:float -> n:int -> float
(** Theorem 1/2/3 dispatch. *)

(** {2 Streaming windowed collection}

    The figure runners' fast path: instead of simulating
    [sample_size × windows] PIATs per class and slicing them into disjoint
    windows, simulate one long trace per shard and slide a
    [sample_size]-window along it by [stride] — the same number of sample
    windows for roughly [stride/sample_size] of the simulation cost.
    Collection grows by whole shards (independent simulations with
    index-derived seeds, fanned out on {!Exec.Pool}) and can stop early
    once every feature's 95% Wilson interval is tighter than a target
    half-width. *)

type window_plan = {
  sample_size : int;
  stride : int;             (** window start spacing, in PIATs *)
  windows_per_shard : int;  (** windows contributed by one shard *)
  min_windows : int;        (** windows accumulated before first scoring *)
  max_windows : int;        (** hard cap per class *)
  half_width : float option;
      (** 95% Wilson half-width target for early stop; [None] = collect
          straight to [max_windows] *)
}

val window_plan :
  ?stride:int ->
  ?windows_per_shard:int ->
  ?min_windows:int ->
  ?half_width:float ->
  sample_size:int ->
  max_windows:int ->
  unit ->
  window_plan
(** Validated constructor.  Defaults: [stride = max 1 (sample_size / 16)],
    [windows_per_shard = 8] (clamped to [max_windows]), [min_windows = 6],
    no early stop.  Collection grows by whole shards, so the realized
    window count is a multiple of [windows_per_shard]: the last shard may
    carry the total past [max_windows] when the cap is not a shard
    multiple.  Raises [Invalid_argument] on a stride outside
    [1, sample_size], [min_windows < 4] (scoring needs 2 train + 2 test
    windows per class), [max_windows < min_windows], or a half-width
    outside (0, 0.5). *)

val shard_piats : window_plan -> int
(** PIATs one shard simulates per class:
    [sample_size + (windows_per_shard - 1) * stride].  Windows never span
    shard boundaries, so sharding changes no window's contents. *)

type windowed_pair = {
  low_windows : Adversary.Dataset.windowed;
  high_windows : Adversary.Dataset.windowed;
  piat_var_low : float;   (** PIAT variance under ω_l, all shards merged *)
  piat_var_high : float;
  ratio_hat : float;      (** max(piat_var_high/piat_var_low, 1) *)
  shards_run : int;       (** shards simulated per class *)
  piats_per_class : int;  (** post-warmup PIATs simulated per class *)
  stopped_early : bool;   (** the half-width target fired before
                              [max_windows] *)
}

val collect_windowed :
  base:System.config ->
  plan:window_plan ->
  features:Adversary.Feature.kind list ->
  windowed_pair * scored list
(** Run the calibration low/high pair under [plan] and return the
    accumulated window features together with the final scoring (so
    callers never re-train the classifier).  Each (shard, class) task
    seeds its simulation with [Rng.mix_seed class_seed shard] (class
    seeds as in {!run_pair}) and extracts features in-task; shard
    results are merged in index order.  Both the collected data and the
    early-stopping decision are functions of [(base.seed, plan)] only —
    bit-identical at any [--jobs].  PIAT variances come from merged
    streaming moments ({!Stats.Stream.Moments.merge}), not a concatenated
    trace.  Raises [Starvation.Tap_starved] /
    [Desim.Sim.Event_budget_exceeded] as {!System.run} does. *)
