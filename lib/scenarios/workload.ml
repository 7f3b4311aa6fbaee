type traces = {
  low : System.result;
  high : System.result;
  var_low : float;
  var_high : float;
  r_hat : float;
}

(* The one class pair: ω_l at the base seed, ω_h at a seed displaced by
   a prime so the two classes draw disjoint streams. *)
let class_configs base =
  ( { base with System.payload_rate_pps = Calibration.rate_low_pps },
    {
      base with
      System.payload_rate_pps = Calibration.rate_high_pps;
      seed = base.System.seed + 7919;
    } )

let run_pair ~base ~run =
  (* The two classes are independent simulations; run them concurrently
     when a pool worker is free. *)
  let low_cfg, high_cfg = class_configs base in
  let low, high =
    Exec.Pool.both (fun () -> run low_cfg) (fun () -> run high_cfg)
  in
  let var_low = Stats.Descriptive.variance low.System.piats in
  let var_high = Stats.Descriptive.variance high.System.piats in
  let r_hat = Float.max (var_high /. var_low) 1.0 in
  { low; high; var_low; var_high; r_hat }

let collect_pair ~base ~piats =
  run_pair ~base ~run:(fun cfg -> System.run cfg ~piats)

let classes t =
  [|
    (Calibration.label_low, t.low.System.piats);
    (Calibration.label_high, t.high.System.piats);
  |]

type scored = {
  feature : Adversary.Feature.kind;
  sample_size : int;
  empirical : float;
  theory : float;
  n_test : int;
  successes : int;
}

let wilson95 s =
  let trials = Stdlib.max s.n_test 1 in
  let successes = Stdlib.max 0 (Stdlib.min trials s.successes) in
  Stats.Confidence.wilson ~successes ~trials ~confidence:0.95

let pp_ci s =
  let iv = wilson95 s in
  Printf.sprintf "[%.2f,%.2f]" iv.Stats.Confidence.lo iv.Stats.Confidence.hi

let theory_of ~feature ~r ~n =
  match feature with
  | Adversary.Feature.Sample_mean -> Analytical.Theorems.v_mean ~r
  | Adversary.Feature.Sample_variance -> Analytical.Theorems.v_variance ~r ~n
  | Adversary.Feature.Sample_entropy _ -> Analytical.Theorems.v_entropy ~r ~n

let scored_of_results ~features ~sample_size ~r results =
  List.map2
    (fun feature (res : Adversary.Detection.result) ->
      {
        feature;
        sample_size;
        empirical = res.Adversary.Detection.detection_rate;
        theory = theory_of ~feature ~r ~n:sample_size;
        n_test =
          Array.fold_left ( + ) 0 res.Adversary.Detection.n_test_per_class;
        successes =
          Array.fold_left ( + ) 0 res.Adversary.Detection.n_correct_per_class;
      })
    features results

let score t ~features ~sample_size =
  let results =
    Adversary.Detection.estimate_features ~features
      ~reference:Calibration.timer_mean ~sample_size ~classes:(classes t) ()
  in
  scored_of_results ~features ~sample_size ~r:t.r_hat results

(* -- Streaming windowed collection ------------------------------------- *)

type window_plan = {
  sample_size : int;
  stride : int;
  windows_per_shard : int;
  min_windows : int;
  max_windows : int;
  half_width : float option;
}

let window_plan ?stride ?(windows_per_shard = 8) ?(min_windows = 6) ?half_width
    ~sample_size ~max_windows () =
  if sample_size < 2 then invalid_arg "Workload.window_plan: sample_size < 2";
  let stride =
    match stride with
    | Some s -> s
    | None -> Stdlib.max 1 (sample_size / 16)
  in
  if stride < 1 || stride > sample_size then
    invalid_arg "Workload.window_plan: stride out of [1, sample_size]";
  if windows_per_shard < 1 then
    invalid_arg "Workload.window_plan: windows_per_shard < 1";
  if min_windows < 4 then
    (* estimate_windowed needs >= 2 train + 2 test windows per class *)
    invalid_arg "Workload.window_plan: min_windows < 4";
  if max_windows < min_windows then
    invalid_arg "Workload.window_plan: max_windows < min_windows";
  (match half_width with
  | Some h when not (h > 0.0 && h < 0.5) ->
      invalid_arg "Workload.window_plan: half_width out of (0, 0.5)"
  | Some _ | None -> ());
  (* A shard never needs to carry more windows than the cap asks for. *)
  let windows_per_shard = Stdlib.min windows_per_shard max_windows in
  { sample_size; stride; windows_per_shard; min_windows; max_windows;
    half_width }

let shard_piats plan =
  plan.sample_size + ((plan.windows_per_shard - 1) * plan.stride)

type windowed_pair = {
  low_windows : Adversary.Dataset.windowed;
  high_windows : Adversary.Dataset.windowed;
  piat_var_low : float;
  piat_var_high : float;
  ratio_hat : float;
  shards_run : int;
  piats_per_class : int;
  stopped_early : bool;
}

let collect_windowed ~base ~plan ~features =
  let entropy_bin_widths = Adversary.Detection.entropy_bin_widths features in
  let reference = Calibration.timer_mean in
  let wps = plan.windows_per_shard in
  let per_shard_piats = shard_piats plan in
  let max_shards = (plan.max_windows + wps - 1) / wps in
  let min_shards = Stdlib.max 1 ((plan.min_windows + wps - 1) / wps) in
  let low_cfg, high_cfg = class_configs base in
  (* One task per (shard, class).  The shard seed is derived from the
     class seed and the shard index, so the work plan — and with it every
     byte of the result — is a function of (base.seed, plan) alone; the
     pool's worker count only decides how many shards run concurrently. *)
  let run_shard cfg shard =
    let cfg =
      { cfg with System.seed = Prng.Rng.mix_seed cfg.System.seed shard }
    in
    let r = System.run cfg ~piats:per_shard_piats in
    let w =
      Adversary.Dataset.sliding_features ~reference
        ~sample_size:plan.sample_size ~stride:plan.stride ~entropy_bin_widths
        r.System.piats
    in
    let m = Stats.Stream.Moments.create () in
    Array.iter (Stats.Stream.Moments.add m) r.System.piats;
    (w, m)
  in
  let acc_low =
    ref (Adversary.Dataset.empty_windowed ~entropy_bin_widths)
  in
  let acc_high =
    ref (Adversary.Dataset.empty_windowed ~entropy_bin_widths)
  in
  let mom_low = ref (Stats.Stream.Moments.create ()) in
  let mom_high = ref (Stats.Stream.Moments.create ()) in
  let ratio_now () =
    Float.max
      (Stats.Stream.Moments.variance !mom_high
      /. Stats.Stream.Moments.variance !mom_low)
      1.0
  in
  let score_now () =
    let named_windows =
      [|
        (Calibration.label_low, !acc_low);
        (Calibration.label_high, !acc_high);
      |]
    in
    let results =
      Adversary.Detection.estimate_windowed ~features
        ~sample_size:plan.sample_size ~named_windows ()
    in
    scored_of_results ~features ~sample_size:plan.sample_size ~r:(ratio_now ())
      results
  in
  let tight scores =
    match plan.half_width with
    | None -> false
    | Some hw ->
        List.for_all
          (fun s ->
            let iv = wilson95 s in
            (iv.Stats.Confidence.hi -. iv.Stats.Confidence.lo) /. 2.0 <= hw)
          scores
  in
  (* Rounds grow the accumulation by whole shards; after each round the
     accumulated windows are scored and the Wilson half-width checked.
     The stopping decision reads only accumulated data, so it is as
     deterministic as the shards themselves.  Without a half-width target
     the first round jumps straight to [max_shards]. *)
  let rec rounds done_shards =
    let target =
      if done_shards = 0 then
        if plan.half_width = None then max_shards else min_shards
      else done_shards + 1
    in
    let fresh = target - done_shards in
    let results =
      Exec.Pool.parallel_init (2 * fresh) (fun t ->
          let shard = done_shards + (t / 2) in
          let cfg = if t mod 2 = 0 then low_cfg else high_cfg in
          run_shard cfg shard)
    in
    (* Merge strictly in shard order, independent of completion order. *)
    for k = 0 to fresh - 1 do
      let wl, ml = results.(2 * k) and wh, mh = results.((2 * k) + 1) in
      acc_low := Adversary.Dataset.append_windowed !acc_low wl;
      acc_high := Adversary.Dataset.append_windowed !acc_high wh;
      mom_low := Stats.Stream.Moments.merge !mom_low ml;
      mom_high := Stats.Stream.Moments.merge !mom_high mh
    done;
    let scores = score_now () in
    if target >= max_shards || tight scores then (target, scores)
    else rounds target
  in
  let shards_run, scores = rounds 0 in
  let pair =
    {
      low_windows = !acc_low;
      high_windows = !acc_high;
      piat_var_low = Stats.Stream.Moments.variance !mom_low;
      piat_var_high = Stats.Stream.Moments.variance !mom_high;
      ratio_hat = ratio_now ();
      shards_run;
      piats_per_class = shards_run * per_shard_piats;
      stopped_early = shards_run < max_shards;
    }
  in
  (pair, scores)
