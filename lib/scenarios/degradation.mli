(** Graceful-degradation sweep: security and QoS cost of channel faults.

    The paper's channel is fault-free; this scenario injects the faults a
    deployment actually sees — wire loss (Bernoulli or bursty
    Gilbert–Elliott), duplication, bounded reordering, link flapping,
    gateway clock drift / missed fires, and gateway crash–restart — and
    reports, side by side at each fault intensity:

    - the {e security} cost: empirical detection rates of the paper's
      mean/variance/entropy classifiers {e and} of a gap-aware adversary
      ({!Adversary.Gaps}) that folds the fault-induced holes out of the
      trace.  The headline result: faults degrade the naive classifiers
      toward 0.5 (the stream looks "more random") while the gap-aware
      adversary keeps detecting — faults are not a countermeasure;
    - the {e QoS} cost: payload latency, delivery fraction, drop/loss
      counts by cause, dummy overhead, crash downtime. *)

type profile = {
  loss : Faults.Lossy.loss_model;
  dup_prob : float;
  reorder_prob : float;
  reorder_delay : float;
  clock : Faults.Clock.spec;
  flap : (float * float) option;  (** (mean_up, mean_down) seconds *)
  mtbf : float;                   (** gateway mean time between failures;
                                      [infinity] = never crashes *)
  restart_delay : float;
}

val fault_free : profile
(** All injectors at zero — the regression baseline. *)

val profile_of_intensity : float -> profile
(** The sweep knob [x] in \[0, 1\]: Bernoulli loss [x], duplication and
    reordering [x/10], timer miss probability [x/2] (coalescing), clock
    drift [0.2% · x], flapping and crashes at rates growing with [x].
    [profile_of_intensity 0.] = {!fault_free}. *)

type config = {
  seed : int;
  timer : Padding.Timer.law;
  jitter : Padding.Jitter.t;
  payload_rate_pps : float;
  packet_size : int;
  warmup_piats : int;
  profile : profile;
}

val default_config : config
(** Calibration CIT/jitter at ω_l, 200-PIAT warm-up, {!fault_free}. *)

type run_result = {
  piats : float array;        (** tap PIATs, post warm-up *)
  overhead : float;
  payload_offered : int;
  payload_delivered : int;
  payload_dropped_gw : int;   (** gateway queue overflow *)
  lost_wire : int;            (** lossy-wire drops (padded stream) *)
  lost_outage : int;          (** dropped while the link was down *)
  lost_crash : int;           (** queue wiped at crashes + arrivals while down *)
  crashes : int;
  gw_downtime : float;
  mean_payload_latency : float;
  sim_time : float;
}

val run_faulty : config -> piats:int -> run_result
(** One faulty end-to-end run: source → crash-wrapped gateway (faulty
    clock) → lossy wire → outage → tap → receiver.  Deterministic in
    [config.seed]; [piats >= 1].  The sender fields pass
    {!System.validate_sender} and the profile's loss and clock their own
    checks, else [Invalid_argument] before the first event.  Raises
    [Starvation.Tap_starved] / [Desim.Sim.Event_budget_exceeded] as
    [System.run] does (heavy outages can starve the tap). *)

type point = {
  intensity : float;
  v_mean : float;
  v_variance : float;
  v_entropy : float;
  v_gap : float;              (** gap-aware adversary: {!Adversary.Gaps.fold}
                                  the trace, then the best of the standard
                                  features on the cleaned material *)
  gap_fraction : float;       (** observed at the tap, high-rate class *)
  overhead : float;
  mean_latency : float;
  delivered_frac : float;
  dropped_gw : int;
  lost_wire : int;
  lost_down : int;            (** outage + crash losses *)
  crashes : int;
  downtime : float;
}

val evaluate :
  ?piats:int ->
  ?sample_size:int ->
  ?timer:Padding.Timer.law ->
  seed:int ->
  profile:profile ->
  intensity:float ->
  unit ->
  point
(** Run the low/high payload-rate pair under [profile] and score all four
    adversaries at [sample_size] (default 400; [piats] defaults to
    20 × sample_size per class).  QoS numbers aggregate both classes.
    Raises [Starvation.Tap_starved] / [Desim.Sim.Event_budget_exceeded]
    from a class run, as {!run_faulty} does. *)

val run :
  ?scale:float ->
  ?seed:int ->
  ?csv_dir:string ->
  ?intensities:float list ->
  Format.formatter ->
  point list
(** The degradation table: one {!evaluate} per intensity (default sweep
    0, 0.02, 0.05, 0.1, 0.2, 0.4), printed like the figure tables and
    optionally saved as [degradation.csv].  Raises
    [Sweep.Sweep_internal_error] if the sweep journal layer misbehaves
    (ordinary point failures are classified, not raised). *)
