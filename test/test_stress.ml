(* Stress and failure-injection: overload, saturation, starvation, and
   robustness of the pipeline under off-nominal configurations. *)

let close ?(tol = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > tol *. Float.max 1.0 (Float.abs expected)
  then Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let test_gateway_overload_queue_growth () =
  (* Payload at 200 pps against a 100 fires/s timer: the queue must grow
     roughly at the 100 pps surplus while the wire rate stays fixed. *)
  let sim = Desim.Sim.create () in
  let rng = Prng.Rng.create ~seed:281 in
  let sent = ref 0 in
  let gw =
    Padding.Gateway.create sim ~rng:(Prng.Rng.split rng)
      ~timer:(Padding.Timer.Constant 0.01) ~jitter:Padding.Jitter.none
      ~dest:(fun _ -> incr sent) ()
  in
  let _src =
    Netsim.Traffic_gen.poisson sim ~rng:(Prng.Rng.split rng) ~rate_pps:200.0
      ~size_bytes:500 ~kind:Netsim.Packet.Payload
      ~dest:(Padding.Gateway.input gw) ()
  in
  Desim.Sim.run_until sim ~time:30.0;
  (* The final fire's emission lands an epsilon after the horizon, so
     allow the boundary packet either way. *)
  Alcotest.(check bool)
    (Printf.sprintf "wire rate pinned (got %d)" !sent)
    true
    (!sent >= 2999 && !sent <= 3000);
  let backlog = Padding.Gateway.queue_length gw in
  Alcotest.(check bool)
    (Printf.sprintf "backlog ~ 3000 (got %d)" backlog)
    true
    (backlog > 2500 && backlog < 3500);
  Alcotest.(check int) "every fire sent payload, no dummies" 0
    (Padding.Gateway.dummy_sent gw)

let test_gateway_overload_with_limit_drops () =
  let sim = Desim.Sim.create () in
  let rng = Prng.Rng.create ~seed:282 in
  let gw =
    Padding.Gateway.create sim ~rng:(Prng.Rng.split rng)
      ~timer:(Padding.Timer.Constant 0.01) ~jitter:Padding.Jitter.none
      ~queue_limit:50 ~dest:(fun _ -> ()) ()
  in
  let src =
    Netsim.Traffic_gen.poisson sim ~rng:(Prng.Rng.split rng) ~rate_pps:200.0
      ~size_bytes:500 ~kind:Netsim.Packet.Payload
      ~dest:(Padding.Gateway.input gw) ()
  in
  Desim.Sim.run_until sim ~time:30.0;
  Alcotest.(check bool) "queue capped" true (Padding.Gateway.queue_length gw <= 50);
  let offered = Netsim.Traffic_gen.generated src in
  Alcotest.(check int) "conservation under drops" offered
    (Padding.Gateway.payload_sent gw
    + Padding.Gateway.queue_length gw
    + Padding.Gateway.payload_dropped gw);
  Alcotest.(check bool) "substantial drops" true
    (Padding.Gateway.payload_dropped gw > 2000)

let test_saturated_link_still_conserves () =
  (* Offered load 2x the link rate with a bounded queue: heavy drops, but
     sent + dropped = offered and the queue stays bounded. *)
  let sim = Desim.Sim.create () in
  let rng = Prng.Rng.create ~seed:283 in
  let delivered = ref 0 in
  let link =
    Netsim.Link.create sim ~bandwidth_bps:400_000.0 ~queue_limit:20
      ~dest:(fun _ -> incr delivered)
      ()
  in
  let src =
    Netsim.Traffic_gen.poisson sim ~rng ~rate_pps:200.0 ~size_bytes:500
      ~kind:Netsim.Packet.Cross ~dest:(Netsim.Link.send link) ()
  in
  Desim.Sim.run_until sim ~time:60.0;
  Netsim.Traffic_gen.stop src;
  Desim.Sim.run_until sim ~time:62.0;
  let offered = Netsim.Traffic_gen.generated src in
  Alcotest.(check int) "conservation" offered
    (Netsim.Link.sent link + Netsim.Link.dropped link);
  Alcotest.(check int) "delivered = sent" (Netsim.Link.sent link) !delivered;
  Alcotest.(check bool) "queue bounded" true (Netsim.Link.queue_depth link <= 20);
  (* 100 pps of 4000-bit packets on a 400 kb/s link: ~full utilization. *)
  Alcotest.(check bool) "link saturated" true (Netsim.Link.utilization link > 0.95)

let test_detection_collapses_on_saturated_path () =
  (* A crushed bottleneck destroys the timing signal: r -> 1.  The
     adversary behind it should be near-blind. *)
  let hop =
    {
      Netsim.Topology.bandwidth_bps = 1e6;
      (* padded stream alone is 0.4 Mb/s; cross adds 0.5 Mb/s -> ~90% *)
      propagation = 0.0;
      queue_limit = Some 200;
      cross =
        Some
          {
            Netsim.Topology.rate_pps = 125.0;
            size_bytes = 500;
            burst = `Poisson;
          };
    }
  in
  let base =
    {
      Scenarios.System.default_config with
      Scenarios.System.seed = 284;
      hops = [| hop |];
      tap_position = 1;
    }
  in
  let traces = Scenarios.Workload.collect_pair ~base ~piats:(300 * 30) in
  let scores =
    Scenarios.Workload.score traces ~features:Adversary.Feature.standard_set
      ~sample_size:300
  in
  List.iter
    (fun (s : Scenarios.Workload.scored) ->
      Alcotest.(check bool)
        (Adversary.Feature.name s.Scenarios.Workload.feature ^ " blinded")
        true
        (s.Scenarios.Workload.empirical < 0.8))
    scores

let test_cbr_payload_still_leaks () =
  (* The leak does not depend on Poisson payload: CBR payload classes are
     detected just as well under CIT. *)
  let base =
    {
      Scenarios.System.default_config with
      Scenarios.System.seed = 285;
      payload_model = Scenarios.System.Cbr_payload;
    }
  in
  let traces = Scenarios.Workload.collect_pair ~base ~piats:(400 * 30) in
  let scores =
    Scenarios.Workload.score traces
      ~features:[ Adversary.Feature.Sample_variance ] ~sample_size:400
  in
  match scores with
  | [ s ] ->
      Alcotest.(check bool) "CBR payload leaks too" true
        (s.Scenarios.Workload.empirical > 0.9)
  | _ -> Alcotest.fail "one feature expected"

let test_unbalanced_priors_accuracy () =
  (* With a 9:1 prior, always answering the heavy class scores 0.9; the
     classifier must not do worse. *)
  let rng = Prng.Rng.create ~seed:286 in
  let gauss mu = Array.init 300 (fun _ -> Prng.Sampler.normal rng ~mu ~sigma:1.0) in
  let clf =
    Adversary.Classifier.train ~priors:[| 0.9; 0.1 |]
      ~classes:[| ("a", gauss 0.0); ("b", gauss 0.5) |]
      ()
  in
  let acc =
    Adversary.Classifier.accuracy clf [| (0, gauss 0.0); (1, gauss 0.5) |]
  in
  Alcotest.(check bool)
    (Printf.sprintf "acc %.3f >= 0.85" acc)
    true (acc >= 0.85)

let test_exponential_vit_is_maximally_safe () =
  (* sigma_T = tau = 10 ms dwarfs every other noise source by 3 orders of
     magnitude: detection must sit at the floor even for huge n. *)
  let base =
    {
      Scenarios.System.default_config with
      Scenarios.System.seed = 287;
      timer =
        Padding.Timer.Exponential { mean = Scenarios.Calibration.timer_mean };
    }
  in
  let traces = Scenarios.Workload.collect_pair ~base ~piats:(500 * 24) in
  Alcotest.(check bool) "r pinned at 1" true (traces.Scenarios.Workload.r_hat < 1.01);
  let scores =
    Scenarios.Workload.score traces ~features:Adversary.Feature.standard_set
      ~sample_size:500
  in
  List.iter
    (fun (s : Scenarios.Workload.scored) ->
      Alcotest.(check bool) "floor" true (s.Scenarios.Workload.empirical < 0.8))
    scores

let test_tiny_sample_sizes_do_not_crash () =
  let rng = Prng.Rng.create ~seed:288 in
  let trace = Array.init 400 (fun _ -> Prng.Sampler.normal rng ~mu:0.01 ~sigma:1e-5) in
  List.iter
    (fun feature ->
      let r =
        Adversary.Detection.estimate ~feature ~reference:0.01 ~sample_size:2
          ~classes:[| ("a", trace); ("b", Array.map (fun x -> x *. 1.01) trace) |]
          ()
      in
      Alcotest.(check bool) "rate in [0,1]" true
        (r.Adversary.Detection.detection_rate >= 0.0
        && r.Adversary.Detection.detection_rate <= 1.0))
    Adversary.Feature.standard_set

let test_mix_overload_flushes_by_threshold () =
  (* Payload far above threshold/timeout capacity: every flush is a full
     threshold batch with no dummies. *)
  let sim = Desim.Sim.create () in
  let rng = Prng.Rng.create ~seed:289 in
  let mix =
    Padding.Mix.create sim ~rng:(Prng.Rng.split rng) ~threshold:4 ~timeout:1.0
      ~dest:(fun _ -> ()) ()
  in
  let _src =
    Netsim.Traffic_gen.poisson sim ~rng:(Prng.Rng.split rng) ~rate_pps:400.0
      ~size_bytes:500 ~kind:Netsim.Packet.Payload ~dest:(Padding.Mix.input mix)
      ()
  in
  Desim.Sim.run_until sim ~time:10.0;
  Alcotest.(check bool) "many flushes" true (Padding.Mix.flushes mix > 500);
  close ~tol:0.01 "no dummy padding under load" 0.0 (Padding.Mix.overhead mix)

let suite =
  [
    Alcotest.test_case "gateway overload: queue grows" `Quick test_gateway_overload_queue_growth;
    Alcotest.test_case "gateway overload: bounded drops" `Quick test_gateway_overload_with_limit_drops;
    Alcotest.test_case "saturated link conserves" `Quick test_saturated_link_still_conserves;
    Alcotest.test_case "saturated path blinds adversary" `Slow test_detection_collapses_on_saturated_path;
    Alcotest.test_case "CBR payload still leaks" `Slow test_cbr_payload_still_leaks;
    Alcotest.test_case "unbalanced priors" `Quick test_unbalanced_priors_accuracy;
    Alcotest.test_case "exponential VIT at floor" `Slow test_exponential_vit_is_maximally_safe;
    Alcotest.test_case "tiny sample sizes robust" `Quick test_tiny_sample_sizes_do_not_crash;
    Alcotest.test_case "mix overload" `Quick test_mix_overload_flushes_by_threshold;
  ]
