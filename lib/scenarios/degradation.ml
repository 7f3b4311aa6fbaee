type profile = {
  loss : Faults.Lossy.loss_model;
  dup_prob : float;
  reorder_prob : float;
  reorder_delay : float;
  clock : Faults.Clock.spec;
  flap : (float * float) option;
  mtbf : float;
  restart_delay : float;
}

let fault_free =
  {
    loss = Faults.Lossy.No_loss;
    dup_prob = 0.0;
    reorder_prob = 0.0;
    reorder_delay = 0.005;
    clock = Faults.Clock.ideal;
    flap = None;
    mtbf = infinity;
    restart_delay = 1.0;
  }

let profile_of_intensity x =
  if x < 0.0 || x > 1.0 || Float.is_nan x then
    invalid_arg "Degradation.profile_of_intensity: intensity outside [0, 1]";
  if x = 0.0 then fault_free
  else
    {
      loss = Faults.Lossy.Bernoulli (Float.min 0.9 x);
      dup_prob = x /. 10.0;
      reorder_prob = x /. 10.0;
      reorder_delay = 0.005;
      clock =
        {
          Faults.Clock.drift = 0.002 *. x;
          miss_prob = x /. 2.0;
          coalesce = true;
          max_consecutive_misses = 4;
        };
      (* Flap/crash rates chosen so a 0.1-intensity run of a few simulated
         minutes sees a handful of each.  Full intensity is a permanent
         blackout: the wire goes down within the first second and never
         comes back, so the run must end in [Starvation.Tap_starved]. *)
      flap = (if x >= 1.0 then Some (0.5, 1e18) else Some (10.0 /. x, 0.3));
      mtbf = 60.0 /. x;
      restart_delay = 1.0;
    }

type config = {
  seed : int;
  timer : Padding.Timer.law;
  jitter : Padding.Jitter.t;
  payload_rate_pps : float;
  packet_size : int;
  warmup_piats : int;
  profile : profile;
}

let default_config =
  {
    seed = 42;
    timer = Padding.Timer.Constant Calibration.timer_mean;
    jitter = Calibration.default_jitter;
    payload_rate_pps = Calibration.rate_low_pps;
    packet_size = Calibration.packet_size;
    warmup_piats = 200;
    profile = fault_free;
  }

type run_result = {
  piats : float array;
  overhead : float;
  payload_offered : int;
  payload_delivered : int;
  payload_dropped_gw : int;
  lost_wire : int;
  lost_outage : int;
  lost_crash : int;
  crashes : int;
  gw_downtime : float;
  mean_payload_latency : float;
  sim_time : float;
}

let validate cfg =
  System.validate_sender ~timer:cfg.timer
    ~payload_rate_pps:cfg.payload_rate_pps ~packet_size:cfg.packet_size
    ~warmup_piats:cfg.warmup_piats;
  Faults.Lossy.validate_loss cfg.profile.loss;
  Faults.Clock.validate cfg.profile.clock

(* Advance until the tap holds [target] timestamps.  The chunk estimate
   uses the *surviving* packet rate so heavy-fault runs do not starve the
   chunking loop; a run that truly stops making progress raises
   [Starvation.Tap_starved] with the metrics snapshot. *)
let run_until_tap_count sim ~tap ~target ~expected_rate =
  Starvation.run_until_tap_count ~scenario:"degradation.run" ~slack:1.2
    ~min_chunk:0.2 sim ~tap ~target ~expected_rate

let run_faulty cfg ~piats =
  validate cfg;
  if piats < 1 then invalid_arg "Degradation.run_faulty: piats < 1";
  Obs.Trace.with_run
    (Printf.sprintf "degradation.run seed=%d pps=%g" cfg.seed
       cfg.payload_rate_pps)
  @@ fun () ->
  let p = cfg.profile in
  let sim = Desim.Sim.create () in
  Exec.Supervise.arm_event_budget sim;
  let root = Prng.Rng.create ~seed:cfg.seed in
  let rng_payload = Prng.Rng.split root in
  let rng_gateway = Prng.Rng.split root in
  let rng_wire = Prng.Rng.split root in
  let rng_clock = Prng.Rng.split root in
  let rng_failure = Prng.Rng.split root in
  let rng_flap = Prng.Rng.split root in
  let receiver = Padding.Receiver.create sim () in
  let tap_times = Netsim.Fvec.create ~capacity:1024 () in
  let tap =
    Netsim.Tap.create sim
      ~buffers:(tap_times, Netsim.Fvec.create ~capacity:1024 ())
      ~dest:(Padding.Receiver.port receiver) ()
  in
  let outage = Faults.Outage.create sim ~dest:(Netsim.Tap.port tap) () in
  let lossy =
    Faults.Lossy.create sim ~rng:rng_wire ~loss:p.loss ~dup_prob:p.dup_prob
      ~reorder_prob:p.reorder_prob ~reorder_delay:p.reorder_delay
      ~dest:(Faults.Outage.port outage) ()
  in
  let interval =
    if p.clock = Faults.Clock.ideal then None
    else Some (Faults.Clock.intervals ~sim p.clock ~law:cfg.timer ~rng:rng_clock)
  in
  let crash =
    Faults.Crash.create sim ~rng:rng_gateway ~failure_rng:rng_failure
      ~timer:cfg.timer ~jitter:cfg.jitter ~packet_size:cfg.packet_size
      ?interval ~mtbf:p.mtbf ~restart_delay:p.restart_delay
      ~dest:(Faults.Lossy.port lossy) ()
  in
  (match p.flap with
  | Some (mean_up, mean_down) ->
      Faults.Outage.flap outage ~rng:rng_flap ~mean_up ~mean_down
  | None -> ());
  let source =
    Netsim.Traffic_gen.poisson sim ~rng:rng_payload
      ~rate_pps:cfg.payload_rate_pps ~size_bytes:cfg.packet_size
      ~kind:Netsim.Packet.Payload ~dest:(Faults.Crash.input crash) ()
  in
  let target = piats + cfg.warmup_piats + 2 in
  let fire_rate = 1.0 /. Padding.Timer.mean cfg.timer in
  let survive =
    (1.0 -. Faults.Lossy.expected_loss_rate p.loss)
    *. (1.0 -. p.clock.Faults.Clock.miss_prob)
  in
  let expected_rate = Float.max (fire_rate *. survive *. 0.5) 1.0 in
  run_until_tap_count sim ~tap ~target ~expected_rate;
  Netsim.Traffic_gen.stop source;
  Faults.Crash.stop crash;
  Faults.Outage.stop_flapping outage;
  Desim.Sim.publish_metrics sim;
  let _, piats =
    System.after_warmup ~warmup_piats:cfg.warmup_piats ~limit:piats tap_times
  in
  {
    piats;
    overhead = Faults.Crash.overhead crash;
    payload_offered = Netsim.Traffic_gen.generated source;
    payload_delivered = Padding.Receiver.payload_received receiver;
    payload_dropped_gw = Faults.Crash.payload_dropped crash;
    lost_wire = Faults.Lossy.lost lossy;
    lost_outage = Faults.Outage.dropped outage;
    lost_crash = Faults.Crash.payload_lost crash;
    crashes = Faults.Crash.crashes crash;
    gw_downtime = Faults.Crash.downtime crash;
    mean_payload_latency = Padding.Receiver.mean_payload_latency receiver;
    sim_time = Desim.Sim.now sim;
  }

type point = {
  intensity : float;
  v_mean : float;
  v_variance : float;
  v_entropy : float;
  v_gap : float;
  gap_fraction : float;
  overhead : float;
  mean_latency : float;
  delivered_frac : float;
  dropped_gw : int;
  lost_wire : int;
  lost_down : int;
  crashes : int;
  downtime : float;
}

let rate_of_result results feature =
  match
    List.find_opt
      (fun r -> r.Adversary.Detection.feature = feature)
      results
  with
  | Some r -> r.Adversary.Detection.detection_rate
  | None -> Float.nan

let evaluate ?piats ?(sample_size = 400) ?timer ~seed ~profile ~intensity () =
  let piats = Option.value piats ~default:(20 * sample_size) in
  let tau = Calibration.timer_mean in
  let base =
    {
      default_config with
      seed;
      profile;
      timer = Option.value timer ~default:default_config.timer;
    }
  in
  (* Disjoint derived seeds: the two classes are independent simulations
     and can run concurrently (bit-identical either way). *)
  let low, high =
    Exec.Pool.both
      (fun () -> run_faulty { base with seed = (seed * 2) + 1 } ~piats)
      (fun () ->
        run_faulty
          {
            base with
            seed = (seed * 2) + 2;
            payload_rate_pps = Calibration.rate_high_pps;
          }
          ~piats)
  in
  let classes =
    [|
      (Calibration.label_low, low.piats); (Calibration.label_high, high.piats);
    |]
  in
  let standard =
    Adversary.Detection.estimate_features
      ~features:Adversary.Feature.standard_set ~reference:tau ~sample_size
      ~classes ()
  in
  (* The gap-aware adversary folds the holes out of the whole trace, then
     runs the same classifier bank on the cleaned material and keeps its
     best feature — an adaptive adversary is not obliged to classify on
     the defender's preferred statistic. *)
  let folded_classes =
    Array.map
      (fun (name, trace) -> (name, Adversary.Gaps.fold ~tau trace))
      classes
  in
  let folded =
    Adversary.Detection.estimate_features
      ~features:Adversary.Feature.standard_set ~reference:tau ~sample_size
      ~classes:folded_classes ()
  in
  let v_gap =
    List.fold_left
      (fun acc r -> Float.max acc r.Adversary.Detection.detection_rate)
      0.0 folded
  in
  let entropy_kind =
    Adversary.Feature.Sample_entropy
      { bin_width = Adversary.Feature.default_entropy_bin_width }
  in
  let offered = low.payload_offered + high.payload_offered in
  let delivered = low.payload_delivered + high.payload_delivered in
  {
    intensity;
    v_mean = rate_of_result standard Adversary.Feature.Sample_mean;
    v_variance = rate_of_result standard Adversary.Feature.Sample_variance;
    v_entropy = rate_of_result standard entropy_kind;
    v_gap;
    gap_fraction = Adversary.Gaps.gap_fraction ~tau high.piats;
    overhead = (low.overhead +. high.overhead) /. 2.0;
    mean_latency =
      (low.mean_payload_latency +. high.mean_payload_latency) /. 2.0;
    delivered_frac =
      (if offered = 0 then 0.0
       else float_of_int delivered /. float_of_int offered);
    dropped_gw = low.payload_dropped_gw + high.payload_dropped_gw;
    lost_wire = low.lost_wire + high.lost_wire;
    lost_down =
      low.lost_outage + high.lost_outage + low.lost_crash + high.lost_crash;
    crashes = low.crashes + high.crashes;
    downtime = low.gw_downtime +. high.gw_downtime;
  }

let default_intensities = [ 0.0; 0.02; 0.05; 0.1; 0.2; 0.4 ]

let run ?(scale = 1.0) ?(seed = 47_000) ?csv_dir
    ?(intensities = default_intensities) fmt =
  let sample_size = Stdlib.max 100 (int_of_float (400.0 *. scale)) in
  let piats = 20 * sample_size in
  let digest =
    Sweep.digest_of_string
      (Printf.sprintf "degradation|seed=%d|n=%d|piats=%d|points=%s" seed
         sample_size piats
         (String.concat "," (List.map (Printf.sprintf "%h") intensities)))
  in
  (* Intensities are seeded by index, hence independent: evaluate them in
     parallel, then fill the table in sweep order.  Intensity 1.0 is a
     designed blackout — under supervision it lands as a [failed] row
     (tap starved) instead of aborting the whole sweep. *)
  let cells =
    Sweep.mapi ~sweep:"degradation" ~digest ~seed
      ~task:(fun ~attempt i x ->
        evaluate ~piats ~sample_size
          ~seed:(Sweep.attempt_seed ~seed:(seed + i) ~attempt)
          ~profile:(profile_of_intensity x) ~intensity:x ())
      intensities
  in
  Sweep.render ~csv:(csv_dir, "degradation.csv")
    ~title:
      "Degradation: detection and QoS vs fault intensity (gap-aware \
       adversary folds the holes back out)"
    ~columns:
      [
        "intensity"; "v_mean"; "v_var"; "v_entropy"; "v_gap"; "gap_frac";
        "overhead"; "latency(ms)"; "delivered"; "drops(gw)"; "lost(wire)";
        "lost(down)"; "crashes";
      ]
    ~key:(Printf.sprintf "%.2f")
    ~rows:(fun p ->
      [
        [
          Printf.sprintf "%.2f" p.intensity;
          Table.fcell p.v_mean;
          Table.fcell p.v_variance;
          Table.fcell p.v_entropy;
          Table.fcell p.v_gap;
          Table.fcell p.gap_fraction;
          Table.fcell p.overhead;
          Printf.sprintf "%.3f" (p.mean_latency *. 1e3);
          Table.fcell p.delivered_frac;
          string_of_int p.dropped_gw;
          string_of_int p.lost_wire;
          string_of_int p.lost_down;
          string_of_int p.crashes;
        ];
      ])
    intensities cells fmt;
  Sweep.ok_values cells
