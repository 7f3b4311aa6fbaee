(* Fault injectors and the graceful-degradation scenario: loss models,
   outage scheduling, clock faults, crash-restart, the gap-aware adversary,
   and the two headline regressions (zero faults = baseline; loss > 0 is a
   leak, not a countermeasure). *)

let mk_payload sim =
  Netsim.Packet.make ~kind:Netsim.Packet.Payload ~size_bytes:500
    ~created:(Desim.Sim.now sim)

(* --- Lossy wire --- *)

let test_lossy_validation () =
  Alcotest.check_raises "loss >= 1"
    (Invalid_argument "Lossy: Bernoulli loss probability out of range")
    (fun () -> Faults.Lossy.validate_loss (Faults.Lossy.Bernoulli 1.0));
  let sim = Desim.Sim.create () in
  let rng = Prng.Rng.create ~seed:1 in
  Alcotest.check_raises "bad reorder delay"
    (Invalid_argument "Lossy: reorder_delay must be positive") (fun () ->
      ignore
        (Faults.Lossy.create sim ~rng ~reorder_delay:0.0 ~dest:(fun _ -> ()) ()))

let test_lossy_bernoulli_rate () =
  let sim = Desim.Sim.create () in
  let rng = Prng.Rng.create ~seed:2 in
  let delivered = ref 0 in
  let lossy =
    Faults.Lossy.create sim ~rng ~loss:(Faults.Lossy.Bernoulli 0.3)
      ~dest:(fun _ -> incr delivered)
      ()
  in
  let n = 20_000 in
  for _ = 1 to n do
    Faults.Lossy.port lossy (mk_payload sim)
  done;
  Alcotest.(check int) "offered" n (Faults.Lossy.offered lossy);
  Alcotest.(check int) "conservation" n
    (Faults.Lossy.lost lossy + Faults.Lossy.passed lossy);
  Alcotest.(check int) "dest saw passed" (Faults.Lossy.passed lossy) !delivered;
  let rate = Faults.Lossy.loss_rate lossy in
  if Float.abs (rate -. 0.3) > 0.02 then
    Alcotest.failf "Bernoulli loss rate %.4f far from 0.3" rate

let test_lossy_gilbert_elliott_bursty () =
  let sim = Desim.Sim.create () in
  let rng = Prng.Rng.create ~seed:3 in
  let model =
    Faults.Lossy.Gilbert_elliott
      { p_good_to_bad = 0.05; p_bad_to_good = 0.2; loss_good = 0.01; loss_bad = 0.8 }
  in
  let got = Hashtbl.create 1024 in
  let lossy =
    Faults.Lossy.create sim ~rng ~loss:model
      ~dest:(fun pkt -> Hashtbl.replace got pkt.Netsim.Packet.id ())
      ()
  in
  let n = 30_000 in
  let ids =
    Array.init n (fun _ ->
        let pkt = mk_payload sim in
        Faults.Lossy.port lossy pkt;
        pkt.Netsim.Packet.id)
  in
  let lost_flag = Array.map (fun id -> not (Hashtbl.mem got id)) ids in
  let marginal = Faults.Lossy.loss_rate lossy in
  let expected = Faults.Lossy.expected_loss_rate model in
  if Float.abs (marginal -. expected) > 0.05 then
    Alcotest.failf "GE loss rate %.4f far from stationary %.4f" marginal expected;
  (* Burstiness: a loss is much more likely right after a loss. *)
  let after_loss = ref 0 and after_loss_lost = ref 0 in
  for i = 1 to n - 1 do
    if lost_flag.(i - 1) then begin
      incr after_loss;
      if lost_flag.(i) then incr after_loss_lost
    end
  done;
  let conditional = float_of_int !after_loss_lost /. float_of_int !after_loss in
  if conditional < 2.0 *. marginal then
    Alcotest.failf "GE not bursty: P(loss|loss) %.3f vs marginal %.3f"
      conditional marginal

let test_lossy_duplication () =
  let sim = Desim.Sim.create () in
  let rng = Prng.Rng.create ~seed:4 in
  let delivered = ref 0 in
  let lossy =
    Faults.Lossy.create sim ~rng ~dup_prob:0.2
      ~dest:(fun _ -> incr delivered)
      ()
  in
  for _ = 1 to 5_000 do
    Faults.Lossy.port lossy (mk_payload sim)
  done;
  let dup = Faults.Lossy.duplicated lossy in
  Alcotest.(check bool) "some duplicates" true (dup > 800 && dup < 1_200);
  Alcotest.(check int) "each duplicate delivered twice" (5_000 + dup) !delivered

let test_lossy_bounded_reordering () =
  let sim = Desim.Sim.create () in
  let rng = Prng.Rng.create ~seed:5 in
  let order = ref [] in
  let lossy =
    Faults.Lossy.create sim ~rng ~reorder_prob:0.3 ~reorder_delay:0.005
      ~dest:(fun pkt ->
        order := (pkt.Netsim.Packet.id, Desim.Sim.now sim) :: !order)
      ()
  in
  let sent = ref [] in
  for i = 0 to 199 do
    let t = float_of_int i *. 0.001 in
    ignore
      (Desim.Sim.at sim ~time:t (fun () ->
           let pkt = mk_payload sim in
           sent := (pkt.Netsim.Packet.id, t) :: !sent;
           Faults.Lossy.port lossy pkt)
        : Desim.Sim.handle)
  done;
  Desim.Sim.run_until sim ~time:1.0;
  let arrivals = List.rev !order in
  Alcotest.(check int) "all delivered" 200 (List.length arrivals);
  Alcotest.(check bool) "some reordered" true (Faults.Lossy.reordered lossy > 20);
  let sent_tbl = Hashtbl.create 256 in
  List.iter (fun (id, t) -> Hashtbl.replace sent_tbl id t) !sent;
  List.iter
    (fun (id, at) ->
      let st = Hashtbl.find sent_tbl id in
      if at -. st > 0.005 +. 1e-6 then
        Alcotest.failf "packet %d held %.4f s > bound" id (at -. st))
    arrivals;
  let ids_in_arrival_order = List.map fst arrivals in
  let ids_in_send_order = List.rev_map fst !sent in
  Alcotest.(check bool) "order actually perturbed" true
    (ids_in_arrival_order <> ids_in_send_order)

(* --- Outages --- *)

let test_outage_flapping_fraction () =
  let sim = Desim.Sim.create () in
  let out = Faults.Outage.create sim ~dest:(fun _ -> ()) () in
  let rng = Prng.Rng.create ~seed:6 in
  Faults.Outage.flap out ~rng ~mean_up:1.0 ~mean_down:1.0;
  Alcotest.check_raises "double flap"
    (Invalid_argument "Outage.flap: already flapping") (fun () ->
      Faults.Outage.flap out ~rng ~mean_up:1.0 ~mean_down:1.0);
  Desim.Sim.run_until sim ~time:400.0;
  let frac = Faults.Outage.downtime out /. 400.0 in
  if frac < 0.35 || frac > 0.65 then
    Alcotest.failf "flap downtime fraction %.3f far from 0.5" frac;
  Alcotest.(check bool) "many outages" true (Faults.Outage.outages out > 50);
  Faults.Outage.stop_flapping out;
  let dt = Faults.Outage.downtime out in
  Desim.Sim.run_until sim ~time:800.0;
  (* Once flapping stops, the link settles up and downtime freezes. *)
  Alcotest.(check bool) "up after stop" true (Faults.Outage.is_up out);
  Alcotest.(check bool) "downtime frozen" true
    (Faults.Outage.downtime out -. dt < 2.0)

(* --- Clock faults --- *)

let test_clock_ideal_identity () =
  let law = Padding.Timer.Normal { mean = 0.01; sigma = 2e-3 } in
  let rng_direct = Prng.Rng.create ~seed:7 in
  let rng_gen = Prng.Rng.create ~seed:7 in
  let gen = Faults.Clock.intervals Faults.Clock.ideal ~law ~rng:rng_gen in
  let timer = Padding.Timer.sampler law and slot = Float.Array.make 1 0.0 in
  for i = 1 to 2_000 do
    Padding.Timer.draw_into timer rng_direct slot 0;
    let a = Float.Array.get slot 0 and b = gen () in
    if a <> b then Alcotest.failf "ideal clock diverged at draw %d" i
  done

let test_clock_drift_scales_mean () =
  let law = Padding.Timer.Constant 0.01 in
  let spec = { Faults.Clock.ideal with Faults.Clock.drift = 0.05 } in
  let gen = Faults.Clock.intervals spec ~law ~rng:(Prng.Rng.create ~seed:8) in
  for _ = 1 to 100 do
    Alcotest.(check (float 1e-12)) "drifted interval" 0.0105 (gen ())
  done

let test_clock_missed_fires_coalesce () =
  let law = Padding.Timer.Constant 0.01 in
  let spec =
    {
      Faults.Clock.drift = 0.0;
      miss_prob = 0.4;
      coalesce = true;
      max_consecutive_misses = 4;
    }
  in
  let gen = Faults.Clock.intervals spec ~law ~rng:(Prng.Rng.create ~seed:9) in
  let long = ref 0 in
  for _ = 1 to 5_000 do
    let dt = gen () in
    let k = Float.round (dt /. 0.01) in
    if Float.abs (dt -. (k *. 0.01)) > 1e-9 then
      Alcotest.failf "coalesced interval %.6f not a whole number of periods" dt;
    if k < 1.0 || k > 5.0 then Alcotest.failf "span %f periods out of range" k;
    if k >= 2.0 then incr long
  done;
  Alcotest.(check bool) "holes appear" true (!long > 1_000)

let test_clock_catchup_bursts () =
  let law = Padding.Timer.Constant 0.01 in
  let spec =
    {
      Faults.Clock.drift = 0.0;
      miss_prob = 0.5;
      coalesce = false;
      max_consecutive_misses = 3;
    }
  in
  let gen = Faults.Clock.intervals spec ~law ~rng:(Prng.Rng.create ~seed:10) in
  let bursts = ref 0 and holes = ref 0 in
  for _ = 1 to 5_000 do
    let dt = gen () in
    if dt = Faults.Clock.catchup_spacing then incr bursts
    else if dt > 0.015 then incr holes
  done;
  Alcotest.(check bool) "catch-up fires replayed" true (!bursts > 500);
  Alcotest.(check bool) "overrun holes precede them" true (!holes > 500)

let test_clock_validation () =
  Alcotest.check_raises "drift" (Invalid_argument "Clock: drift must be > -1")
    (fun () ->
      Faults.Clock.validate { Faults.Clock.ideal with Faults.Clock.drift = -1.0 });
  Alcotest.check_raises "miss_prob"
    (Invalid_argument "Clock: miss_prob must be in [0, 1)") (fun () ->
      Faults.Clock.validate
        { Faults.Clock.ideal with Faults.Clock.miss_prob = 1.0 })

(* --- Crash-restart --- *)

let crash_gateway ~mtbf ~restart_delay ~rate_pps ~horizon ~seed =
  let sim = Desim.Sim.create () in
  let root = Prng.Rng.create ~seed in
  let rng = Prng.Rng.split root in
  let failure_rng = Prng.Rng.split root in
  let rng_src = Prng.Rng.split root in
  let emissions = ref [] in
  let crash =
    Faults.Crash.create sim ~rng ~failure_rng
      ~timer:(Padding.Timer.Constant 0.01) ~jitter:Padding.Jitter.none ~mtbf
      ~restart_delay
      ~dest:(fun _ -> emissions := Desim.Sim.now sim :: !emissions)
      ()
  in
  let src =
    Netsim.Traffic_gen.poisson sim ~rng:rng_src ~rate_pps ~size_bytes:500
      ~kind:Netsim.Packet.Payload ~dest:(Faults.Crash.input crash) ()
  in
  Desim.Sim.run_until sim ~time:horizon;
  Netsim.Traffic_gen.stop src;
  (crash, src, List.rev !emissions)

let test_crash_punches_holes_and_recovers () =
  let crash, _, emissions =
    crash_gateway ~mtbf:2.0 ~restart_delay:1.0 ~rate_pps:20.0 ~horizon:60.0
      ~seed:11
  in
  let crashes = Faults.Crash.crashes crash in
  Alcotest.(check bool) "crashed several times" true (crashes >= 5);
  let max_gap = ref 0.0 in
  List.iteri
    (fun i t ->
      if i > 0 then
        max_gap := Float.max !max_gap (t -. List.nth emissions (i - 1)))
    emissions;
  Alcotest.(check bool) "restart hole visible on the wire" true
    (!max_gap >= 0.99);
  let dt = Faults.Crash.downtime crash in
  Alcotest.(check bool) "downtime bounded by crash count" true
    (dt >= float_of_int (crashes - 1) *. 1.0 -. 1e-6
    && dt <= (float_of_int crashes *. 1.0) +. 1e-6);
  Alcotest.(check bool) "still emitting after recovery" true
    (List.exists (fun t -> t > 55.0) emissions)

let test_crash_payload_conservation () =
  let crash, src, _ =
    crash_gateway ~mtbf:1.0 ~restart_delay:0.5 ~rate_pps:200.0 ~horizon:30.0
      ~seed:12
  in
  let offered = Netsim.Traffic_gen.generated src in
  let accounted =
    Faults.Crash.payload_sent crash
    + Faults.Crash.payload_dropped crash
    + Faults.Crash.payload_lost crash
    + Faults.Crash.queue_length crash
  in
  Alcotest.(check int) "offered fully accounted" offered accounted;
  Alcotest.(check bool) "crash losses observed" true
    (Faults.Crash.payload_lost crash > 0)

let test_crash_never_with_infinite_mtbf () =
  (* With mtbf = infinity the wrapper must be byte-identical to a plain
     gateway driven by the same RNG. *)
  let run_wrapped wrap =
    let sim = Desim.Sim.create () in
    let rng = Prng.Rng.create ~seed:13 in
    let emissions = ref [] in
    let dest _ = emissions := Desim.Sim.now sim :: !emissions in
    let timer = Padding.Timer.Normal { mean = 0.01; sigma = 1e-3 } in
    let jitter = Padding.Jitter.mechanistic () in
    let stop =
      if wrap then begin
        let c =
          Faults.Crash.create sim ~rng
            ~failure_rng:(Prng.Rng.create ~seed:999) ~timer ~jitter
            ~mtbf:infinity ~restart_delay:1.0 ~dest ()
        in
        fun () -> Faults.Crash.stop c
      end
      else begin
        let g = Padding.Gateway.create sim ~rng ~timer ~jitter ~dest () in
        fun () -> Padding.Gateway.stop g
      end
    in
    Desim.Sim.run_until sim ~time:5.0;
    stop ();
    List.rev !emissions
  in
  let a = run_wrapped true and b = run_wrapped false in
  Alcotest.(check int) "same emission count" (List.length b) (List.length a);
  List.iter2 (fun x y -> Alcotest.(check (float 0.0)) "same instant" y x) a b

let test_crash_stop_silences () =
  let crash, _, _ =
    crash_gateway ~mtbf:2.0 ~restart_delay:1.0 ~rate_pps:20.0 ~horizon:10.0
      ~seed:14
  in
  let fires_before = Faults.Crash.fires crash in
  Faults.Crash.stop crash;
  Alcotest.(check int) "fires frozen after stop" fires_before
    (Faults.Crash.fires crash)

(* --- Gap-aware adversary --- *)

let test_gaps_fold_collapses_holes () =
  let tau = 0.01 in
  let piats = [| 0.0101; 0.0202; 0.0099; 0.0298; 0.0404; 0.0001 |] in
  let folded = Adversary.Gaps.fold ~tau piats in
  (* The 0.0001 duplicate echo (k = 0) is discarded. *)
  Alcotest.(check int) "k=0 dropped" 5 (Array.length folded);
  Array.iter
    (fun x ->
      if x < 0.009 || x > 0.011 then
        Alcotest.failf "folded PIAT %.5f not near one period" x)
    folded;
  Alcotest.(check (float 1e-9)) "gap fraction" (4.0 /. 6.0)
    (Adversary.Gaps.gap_fraction ~tau piats)

(* --- Degradation scenario: the two headline regressions --- *)

let baseline_scores ~seed ~piats ~sample_size =
  let base = { Scenarios.System.default_config with Scenarios.System.seed } in
  let low =
    Scenarios.System.run
      { base with Scenarios.System.seed = (seed * 2) + 1 }
      ~piats
  in
  let high =
    Scenarios.System.run
      {
        base with
        Scenarios.System.seed = (seed * 2) + 2;
        Scenarios.System.payload_rate_pps = 40.0;
      }
      ~piats
  in
  let classes =
    [| ("low", low.Scenarios.System.piats); ("high", high.Scenarios.System.piats) |]
  in
  let results =
    Adversary.Detection.estimate_features
      ~features:Adversary.Feature.standard_set ~reference:0.01 ~sample_size
      ~classes ()
  in
  let overhead =
    (low.Scenarios.System.overhead +. high.Scenarios.System.overhead) /. 2.0
  in
  (overhead, results)

let test_degradation_zero_faults_matches_baseline () =
  let piats = 4_000 and sample_size = 200 in
  let seed = 4_240 in
  let point =
    Scenarios.Degradation.evaluate ~piats ~sample_size ~seed
      ~profile:Scenarios.Degradation.fault_free ~intensity:0.0 ()
  in
  (* No fault ever fired... *)
  Alcotest.(check int) "no wire loss" 0 point.Scenarios.Degradation.lost_wire;
  Alcotest.(check int) "no downtime loss" 0 point.Scenarios.Degradation.lost_down;
  Alcotest.(check int) "no crashes" 0 point.Scenarios.Degradation.crashes;
  Alcotest.(check (float 1e-9)) "no downtime" 0.0
    point.Scenarios.Degradation.downtime;
  Alcotest.(check bool) "everything delivered" true
    (point.Scenarios.Degradation.delivered_frac > 0.99);
  (* ...and security matches the fault-free system within noise. *)
  let sys_overhead, sys_results = baseline_scores ~seed ~piats ~sample_size in
  let sys_var =
    match
      List.find_opt
        (fun r ->
          r.Adversary.Detection.feature = Adversary.Feature.Sample_variance)
        sys_results
    with
    | Some r -> r.Adversary.Detection.detection_rate
    | None -> Alcotest.fail "no variance result"
  in
  let dv = point.Scenarios.Degradation.v_variance in
  if Float.abs (dv -. sys_var) > 0.2 then
    Alcotest.failf "zero-fault variance detection %.3f vs baseline %.3f" dv
      sys_var;
  Alcotest.(check bool) "variance adversary strong in both" true
    (dv >= 0.75 && sys_var >= 0.75);
  Alcotest.(check bool) "gap-aware = naive when there are no gaps" true
    (Float.abs
       (point.Scenarios.Degradation.v_gap
       -. Float.max dv
            (Float.max point.Scenarios.Degradation.v_mean
               point.Scenarios.Degradation.v_entropy))
    <= 0.2);
  let ovh = point.Scenarios.Degradation.overhead in
  if Float.abs (ovh -. sys_overhead) > 0.1 then
    Alcotest.failf "overhead %.3f far from baseline %.3f" ovh sys_overhead

let test_degradation_loss_leaks_to_gap_aware_adversary () =
  let piats = 6_000 and sample_size = 200 in
  let profile =
    {
      Scenarios.Degradation.fault_free with
      Scenarios.Degradation.loss = Faults.Lossy.Bernoulli 0.12;
    }
  in
  let p =
    Scenarios.Degradation.evaluate ~piats ~sample_size ~seed:4_242 ~profile
      ~intensity:0.12 ()
  in
  Alcotest.(check bool) "wire actually lossy" true
    (p.Scenarios.Degradation.lost_wire > 500);
  Alcotest.(check bool) "gaps observed at the tap" true
    (p.Scenarios.Degradation.gap_fraction > 0.05);
  (* The naive classifiers degrade; the gap-aware adversary does not. *)
  let v_gap = p.Scenarios.Degradation.v_gap in
  Alcotest.(check bool) "gap-aware adversary still detects" true (v_gap >= 0.8);
  List.iter
    (fun (name, v) ->
      if not (v_gap > v) then
        Alcotest.failf "gap-aware %.3f does not exceed %s baseline %.3f" v_gap
          name v)
    [
      ("mean", p.Scenarios.Degradation.v_mean);
      ("variance", p.Scenarios.Degradation.v_variance);
      ("entropy", p.Scenarios.Degradation.v_entropy);
    ]

let test_degradation_profile_validation () =
  Alcotest.check_raises "intensity > 1"
    (Invalid_argument
       "Degradation.profile_of_intensity: intensity outside [0, 1]")
    (fun () -> ignore (Scenarios.Degradation.profile_of_intensity 1.5));
  Alcotest.(check bool) "zero intensity is the fault-free profile" true
    (Scenarios.Degradation.profile_of_intensity 0.0
    = Scenarios.Degradation.fault_free)

(* The faulty run makes the sender check [System] owns, so a NaN or an
   infinite payload rate fails there, before any timer fire, and never
   reaches the payload sampler or the event loop. *)
let test_degradation_rejects_non_finite_rate () =
  List.iter
    (fun (label, rate, msg) ->
      Obs.Metrics.reset ();
      let cfg =
        {
          Scenarios.Degradation.default_config with
          payload_rate_pps = rate;
          profile = Scenarios.Degradation.profile_of_intensity 0.1;
        }
      in
      Alcotest.check_raises label (Invalid_argument msg) (fun () ->
          ignore
            (Scenarios.Degradation.run_faulty cfg ~piats:50
              : Scenarios.Degradation.run_result));
      Alcotest.(check int) (label ^ ": no timer fire") 0
        (Obs.Metrics.Snapshot.counter_value (Obs.Metrics.snapshot ())
           "padding.gateway.fires"))
    [
      ("nan rate", Float.nan, "System: payload_rate <= 0");
      ("infinite rate", infinity, "System: payload_rate not finite");
    ]

(* An infinite drift makes every interval [inf]: the clock check rejects
   it before the first event, so the run never starves its tap. *)
let test_degradation_rejects_infinite_drift () =
  Obs.Metrics.reset ();
  let profile = Scenarios.Degradation.profile_of_intensity 0.1 in
  let cfg =
    {
      Scenarios.Degradation.default_config with
      profile =
        {
          profile with
          clock = { profile.Scenarios.Degradation.clock with drift = infinity };
        };
    }
  in
  Alcotest.check_raises "infinite drift"
    (Invalid_argument "Clock: drift not finite") (fun () ->
      ignore
        (Scenarios.Degradation.run_faulty cfg ~piats:50
          : Scenarios.Degradation.run_result));
  Alcotest.(check int) "no timer fire" 0
    (Obs.Metrics.Snapshot.counter_value (Obs.Metrics.snapshot ())
       "padding.gateway.fires")

let suite =
  [
    Alcotest.test_case "lossy validation" `Quick test_lossy_validation;
    Alcotest.test_case "bernoulli loss rate" `Quick test_lossy_bernoulli_rate;
    Alcotest.test_case "gilbert-elliott bursty" `Quick
      test_lossy_gilbert_elliott_bursty;
    Alcotest.test_case "duplication" `Quick test_lossy_duplication;
    Alcotest.test_case "bounded reordering" `Quick test_lossy_bounded_reordering;
    Alcotest.test_case "outage flapping" `Quick test_outage_flapping_fraction;
    Alcotest.test_case "clock ideal identity" `Quick test_clock_ideal_identity;
    Alcotest.test_case "clock drift" `Quick test_clock_drift_scales_mean;
    Alcotest.test_case "clock miss+coalesce" `Quick
      test_clock_missed_fires_coalesce;
    Alcotest.test_case "clock catch-up bursts" `Quick test_clock_catchup_bursts;
    Alcotest.test_case "clock validation" `Quick test_clock_validation;
    Alcotest.test_case "crash holes + recovery" `Quick
      test_crash_punches_holes_and_recovers;
    Alcotest.test_case "crash payload conservation" `Quick
      test_crash_payload_conservation;
    Alcotest.test_case "crash mtbf=inf inert" `Quick
      test_crash_never_with_infinite_mtbf;
    Alcotest.test_case "crash stop" `Quick test_crash_stop_silences;
    Alcotest.test_case "gaps fold" `Quick test_gaps_fold_collapses_holes;
    Alcotest.test_case "degradation: zero faults = baseline" `Quick
      test_degradation_zero_faults_matches_baseline;
    Alcotest.test_case "degradation: loss leaks via gaps" `Quick
      test_degradation_loss_leaks_to_gap_aware_adversary;
    Alcotest.test_case "degradation: profile validation" `Quick
      test_degradation_profile_validation;
    Alcotest.test_case "degradation: non-finite payload rate rejected" `Quick
      test_degradation_rejects_non_finite_rate;
    Alcotest.test_case "degradation: infinite clock drift rejected" `Quick
      test_degradation_rejects_infinite_drift;
  ]
