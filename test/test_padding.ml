(* Padding layer: timer laws, jitter models, the sender gateway's padding
   invariants, the receiver, and the adaptive masker. *)

let close ?(tol = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > tol *. Float.max 1.0 (Float.abs expected)
  then Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* --- Timer --- *)

let test_timer_means_and_sigmas () =
  close "constant mean" 0.01 (Padding.Timer.mean (Padding.Timer.Constant 0.01));
  close "constant sigma" 0.0 (Padding.Timer.sigma (Padding.Timer.Constant 0.01));
  close "normal sigma" 2e-5
    (Padding.Timer.sigma (Padding.Timer.Normal { mean = 0.01; sigma = 2e-5 }));
  close "uniform sigma = hw/sqrt3" (1e-3 /. sqrt 3.0)
    (Padding.Timer.sigma (Padding.Timer.Uniform { mean = 0.01; half_width = 1e-3 }));
  close "exponential sigma = mean" 0.01
    (Padding.Timer.sigma (Padding.Timer.Exponential { mean = 0.01 }))

let draw law rng =
  let slot = Float.Array.make 1 0.0 in
  Padding.Timer.draw_into (Padding.Timer.sampler law) rng slot 0;
  Float.Array.get slot 0

let test_timer_draw_statistics () =
  let rng = Prng.Rng.create ~seed:111 in
  let check law =
    let acc = Stats.Descriptive.Acc.create () in
    for _ = 1 to 100_000 do
      let x = draw law rng in
      if x <= 0.0 then Alcotest.fail "non-positive interval";
      Stats.Descriptive.Acc.add acc x
    done;
    close ~tol:0.02 "mean matches" (Padding.Timer.mean law)
      (Stats.Descriptive.Acc.mean acc);
    close ~tol:0.05 "sigma matches" (Padding.Timer.sigma law)
      (Stats.Descriptive.Acc.std acc)
  in
  check (Padding.Timer.Normal { mean = 0.01; sigma = 1e-3 });
  check (Padding.Timer.Uniform { mean = 0.01; half_width = 5e-3 });
  check (Padding.Timer.Exponential { mean = 0.01 })

let test_timer_cit_draw_exact () =
  let rng = Prng.Rng.create ~seed:112 in
  for _ = 1 to 10 do
    close "CIT exact" 0.01 (draw (Padding.Timer.Constant 0.01) rng)
  done

let test_timer_validation () =
  Alcotest.check_raises "constant <= 0"
    (Invalid_argument "Timer: constant period <= 0") (fun () ->
      Padding.Timer.validate (Padding.Timer.Constant 0.0));
  Alcotest.check_raises "uniform hw"
    (Invalid_argument "Timer: uniform half_width out of (0, mean)") (fun () ->
      Padding.Timer.validate
        (Padding.Timer.Uniform { mean = 0.01; half_width = 0.02 }));
  List.iter
    (fun (name, law) ->
      Alcotest.check_raises name
        (Invalid_argument "Timer: parameter not finite") (fun () ->
          Padding.Timer.validate law))
    [
      ("constant infinity", Padding.Timer.Constant Float.infinity);
      ("normal sigma infinity",
       Padding.Timer.Normal { mean = 0.01; sigma = Float.infinity });
      ("uniform mean infinity",
       Padding.Timer.Uniform { mean = Float.infinity; half_width = 0.001 });
      ("exponential mean infinity",
       Padding.Timer.Exponential { mean = Float.infinity });
    ]

(* --- Jitter --- *)

let latency ?(sends_payload = false) ?(arrivals = 0) m rng =
  let slot = Float.Array.make 1 0.0 in
  Padding.Jitter.latency_into m rng ~sends_payload ~arrivals_in_window:arrivals
    slot 0;
  Float.Array.get slot 0

let test_jitter_none () =
  let rng = Prng.Rng.create ~seed:113 in
  close "zero" 0.0 (latency Padding.Jitter.none rng)

let test_jitter_nonnegative () =
  let rng = Prng.Rng.create ~seed:114 in
  let models =
    [
      Padding.Jitter.parametric ~mu:1e-6 ~sigma:5e-6;
      Padding.Jitter.mechanistic ();
    ]
  in
  List.iter
    (fun m ->
      for _ = 1 to 10_000 do
        let l =
          latency ~sends_payload:true ~arrivals:1 m rng
        in
        if l < 0.0 then Alcotest.fail "negative latency"
      done)
    models

let test_mechanistic_payload_path_adds_variance () =
  (* The paper's leak: fires that send payload have higher-variance latency. *)
  let rng = Prng.Rng.create ~seed:115 in
  let m = Padding.Jitter.mechanistic () in
  let acc_of sends_payload =
    let acc = Stats.Descriptive.Acc.create () in
    for _ = 1 to 50_000 do
      Stats.Descriptive.Acc.add acc
        (latency ~sends_payload m rng)
    done;
    acc
  in
  let dummy = acc_of false and payload = acc_of true in
  Alcotest.(check bool) "payload path slower on average" true
    (Stats.Descriptive.Acc.mean payload > Stats.Descriptive.Acc.mean dummy);
  Alcotest.(check bool) "payload path noisier" true
    (Stats.Descriptive.Acc.variance payload > Stats.Descriptive.Acc.variance dummy)

let test_mechanistic_irq_blocking_adds_delay () =
  let rng = Prng.Rng.create ~seed:116 in
  let m = Padding.Jitter.mechanistic () in
  let mean_of arrivals =
    let acc = Stats.Descriptive.Acc.create () in
    for _ = 1 to 30_000 do
      Stats.Descriptive.Acc.add acc (latency ~arrivals m rng)
    done;
    Stats.Descriptive.Acc.mean acc
  in
  Alcotest.(check bool) "blocking grows with arrivals" true
    (mean_of 3 > mean_of 0 +. 4e-6)

let test_parametric_moments () =
  let rng = Prng.Rng.create ~seed:117 in
  let m = Padding.Jitter.parametric ~mu:1e-4 ~sigma:1e-5 in
  let acc = Stats.Descriptive.Acc.create () in
  for _ = 1 to 50_000 do
    Stats.Descriptive.Acc.add acc (latency m rng)
  done;
  (* mu >> sigma so clipping is negligible *)
  close ~tol:0.01 "mean" 1e-4 (Stats.Descriptive.Acc.mean acc);
  close ~tol:0.05 "sigma" 1e-5 (Stats.Descriptive.Acc.std acc)

let test_jitter_invalid () =
  Alcotest.check_raises "negative mu" (Invalid_argument "Jitter.parametric: mu < 0")
    (fun () -> ignore (Padding.Jitter.parametric ~mu:(-1.0) ~sigma:1.0));
  (* NaN and infinite parameters fail at construction, not at the first
     fire (NaN) or in a starved or silently unblocked run (infinity). *)
  let raises msg f =
    Alcotest.check_raises msg (Invalid_argument msg) (fun () ->
        ignore (f () : Padding.Jitter.t))
  in
  let mech = Padding.Jitter.mechanistic in
  raises "Jitter.parametric: mu < 0" (fun () ->
      Padding.Jitter.parametric ~mu:Float.nan ~sigma:1e-6);
  raises "Jitter.parametric: sigma < 0" (fun () ->
      Padding.Jitter.parametric ~mu:1e-6 ~sigma:Float.nan);
  raises "Jitter.parametric: mu not finite" (fun () ->
      Padding.Jitter.parametric ~mu:Float.infinity ~sigma:1e-6);
  raises "Jitter.parametric: sigma not finite" (fun () ->
      Padding.Jitter.parametric ~mu:1e-6 ~sigma:Float.infinity);
  raises "Jitter.mechanistic: negative parameter" (fun () ->
      mech ~context_switch_mu:Float.nan ());
  raises "Jitter.mechanistic: negative parameter" (fun () ->
      mech ~payload_extra_sigma:Float.nan ());
  raises "Jitter.mechanistic: negative parameter" (fun () ->
      mech ~irq_delay_mean:(-1e-6) ());
  raises "Jitter.mechanistic: context_switch_sigma not finite" (fun () ->
      mech ~context_switch_sigma:Float.infinity ());
  raises "Jitter.mechanistic: irq_delay_mean not finite" (fun () ->
      mech ~irq_delay_mean:Float.infinity ());
  (* A zero IRQ delay turns blocking off: arrivals add nothing. *)
  let off = mech ~irq_delay_mean:0.0 () in
  let draw arrivals =
    latency ~arrivals off (Prng.Rng.create ~seed:118)
  in
  Alcotest.(check (float 0.0)) "irq_delay_mean 0: no blocking" (draw 0) (draw 5)

(* --- Gateway --- *)

let make_system ?(timer = Padding.Timer.Constant 0.01)
    ?(jitter = Padding.Jitter.none) ?(payload_rate = 10.0) ~seed () =
  let sim = Desim.Sim.create () in
  let rng = Prng.Rng.create ~seed in
  let tap = Netsim.Tap.create sim ~dest:(fun _ -> ()) () in
  let gw =
    Padding.Gateway.create sim ~rng:(Prng.Rng.split rng) ~timer ~jitter
      ~dest:(Netsim.Tap.port tap) ()
  in
  let src =
    Netsim.Traffic_gen.poisson sim ~rng:(Prng.Rng.split rng)
      ~rate_pps:payload_rate ~size_bytes:500 ~kind:Netsim.Packet.Payload
      ~dest:(Padding.Gateway.input gw) ()
  in
  (sim, tap, gw, src)

let test_gateway_constant_output_rate () =
  let sim, tap, gw, _ = make_system ~seed:118 () in
  Desim.Sim.run_until sim ~time:50.0;
  (* 100 fires/s for 50 s = 5000 packets regardless of payload *)
  Alcotest.(check int) "output count" 5000 (Netsim.Tap.count tap);
  Alcotest.(check int) "fires" 5000
    (Padding.Gateway.payload_sent gw + Padding.Gateway.dummy_sent gw)

let test_gateway_output_rate_independent_of_payload () =
  let count rate seed =
    let sim, tap, _, _ = make_system ~payload_rate:rate ~seed () in
    Desim.Sim.run_until sim ~time:50.0;
    Netsim.Tap.count tap
  in
  Alcotest.(check int) "10pps = 40pps on the wire" (count 10.0 119) (count 40.0 120)

let test_gateway_payload_conservation () =
  let sim, _, gw, src = make_system ~seed:121 () in
  Desim.Sim.run_until sim ~time:100.0;
  let offered = Netsim.Traffic_gen.generated src in
  Alcotest.(check int) "offered = sent + queued + dropped" offered
    (Padding.Gateway.payload_sent gw
    + Padding.Gateway.queue_length gw
    + Padding.Gateway.payload_dropped gw)

let test_gateway_dummy_fill () =
  Obs.Metrics.reset ();
  let sim, _, gw, src = make_system ~payload_rate:10.0 ~seed:122 () in
  Desim.Sim.run_until sim ~time:100.0;
  (* 10k fires, ~1k payload: overhead ~ 0.9 *)
  close ~tol:0.03 "overhead" 0.9 (Padding.Gateway.overhead gw);
  Netsim.Traffic_gen.stop src;
  Alcotest.(check int) "fires = payload + dummy"
    (Obs.Metrics.Snapshot.counter_value (Obs.Metrics.snapshot ())
       "padding.gateway.fires")
    (Padding.Gateway.payload_sent gw + Padding.Gateway.dummy_sent gw)

let test_gateway_piat_near_period_without_jitter () =
  let sim, tap, _, _ = make_system ~seed:123 () in
  Desim.Sim.run_until sim ~time:20.0;
  let piats = Netsim.Trace.piats (Netsim.Tap.timestamps tap) in
  Array.iter (fun x -> close ~tol:1e-9 "exact period" 0.01 x) piats

let test_gateway_fifo_payload_order () =
  (* Payload packets must exit in arrival order. *)
  let sim = Desim.Sim.create () in
  let rng = Prng.Rng.create ~seed:124 in
  let out = ref [] in
  let gw =
    Padding.Gateway.create sim ~rng ~timer:(Padding.Timer.Constant 0.01)
      ~jitter:Padding.Jitter.none
      ~dest:(fun p ->
        if p.Netsim.Packet.kind = Netsim.Packet.Payload then
          out := p.Netsim.Packet.id :: !out)
      ()
  in
  let ids = ref [] in
  for _ = 1 to 20 do
    let p = Netsim.Packet.make ~kind:Netsim.Packet.Payload ~size_bytes:500
        ~created:(Desim.Sim.now sim)
    in
    ids := p.Netsim.Packet.id :: !ids;
    Padding.Gateway.input gw p
  done;
  Desim.Sim.run_until sim ~time:1.0;
  Alcotest.(check (list int)) "FIFO order" (List.rev !ids) (List.rev !out)

let test_gateway_queue_limit () =
  let sim = Desim.Sim.create () in
  let rng = Prng.Rng.create ~seed:125 in
  let gw =
    Padding.Gateway.create sim ~rng ~timer:(Padding.Timer.Constant 0.01)
      ~jitter:Padding.Jitter.none ~queue_limit:5 ~dest:(fun _ -> ()) ()
  in
  for _ = 1 to 12 do
    Padding.Gateway.input gw
      (Netsim.Packet.make ~kind:Netsim.Packet.Payload ~size_bytes:500 ~created:0.0)
  done;
  Alcotest.(check int) "queue capped" 5 (Padding.Gateway.queue_length gw);
  Alcotest.(check int) "drops counted" 7 (Padding.Gateway.payload_dropped gw)

let test_gateway_overflow_then_drain () =
  (* Overflow, then let the timer drain the queue: survivors exit in FIFO
     order and every offered packet ends up sent or dropped. *)
  let sim = Desim.Sim.create () in
  let rng = Prng.Rng.create ~seed:135 in
  let out = ref [] in
  let gw =
    Padding.Gateway.create sim ~rng ~timer:(Padding.Timer.Constant 0.01)
      ~jitter:Padding.Jitter.none ~queue_limit:8
      ~dest:(fun pkt ->
        if pkt.Netsim.Packet.kind = Netsim.Packet.Payload then
          out := pkt.Netsim.Packet.id :: !out)
      ()
  in
  let offered =
    List.init 20 (fun _ ->
        let pkt =
          Netsim.Packet.make ~kind:Netsim.Packet.Payload ~size_bytes:500
            ~created:0.0
        in
        Padding.Gateway.input gw pkt;
        pkt.Netsim.Packet.id)
  in
  Alcotest.(check int) "overflow drops" 12 (Padding.Gateway.payload_dropped gw);
  Desim.Sim.run_until sim ~time:1.0;
  Padding.Gateway.stop gw;
  Alcotest.(check int) "queue drained" 0 (Padding.Gateway.queue_length gw);
  Alcotest.(check int) "conservation" 20
    (Padding.Gateway.payload_sent gw + Padding.Gateway.payload_dropped gw);
  (* The 8 survivors are exactly the first 8 offered, in order. *)
  let survivors = List.filteri (fun i _ -> i < 8) offered in
  Alcotest.(check (list int)) "FIFO survivors" survivors (List.rev !out)

let test_gateway_rejects_non_payload () =
  let sim = Desim.Sim.create () in
  let rng = Prng.Rng.create ~seed:126 in
  let gw =
    Padding.Gateway.create sim ~rng ~timer:(Padding.Timer.Constant 0.01)
      ~jitter:Padding.Jitter.none ~dest:(fun _ -> ()) ()
  in
  Alcotest.check_raises "cross rejected"
    (Invalid_argument "Gateway.input: only payload packets enter the sender gateway")
    (fun () ->
      Padding.Gateway.input gw
        (Netsim.Packet.make ~kind:Netsim.Packet.Cross ~size_bytes:500 ~created:0.0))

let test_gateway_stop () =
  let sim, tap, gw, _ = make_system ~seed:127 () in
  Desim.Sim.run_until sim ~time:1.0;
  Padding.Gateway.stop gw;
  let frozen = Netsim.Tap.count tap in
  Desim.Sim.run_until sim ~time:5.0;
  Alcotest.(check int) "no more output" frozen (Netsim.Tap.count tap)

let test_gateway_vit_piat_sigma () =
  let sigma_t = 2e-4 in
  let sim, tap, _, _ =
    make_system
      ~timer:(Padding.Timer.Normal { mean = 0.01; sigma = sigma_t })
      ~seed:128 ()
  in
  Desim.Sim.run_until sim ~time:200.0;
  let piats = Netsim.Trace.piats (Netsim.Tap.timestamps tap) in
  close ~tol:0.05 "PIAT sigma = sigma_T" sigma_t (Stats.Descriptive.std piats);
  close ~tol:0.01 "PIAT mean = tau" 0.01 (Stats.Descriptive.mean piats)

let test_gateway_monotone_emissions () =
  (* Even with violent jitter, emissions never go backwards in time. *)
  let sim, tap, _, _ =
    make_system ~jitter:(Padding.Jitter.parametric ~mu:0.0 ~sigma:5e-3)
      ~seed:129 ()
  in
  Desim.Sim.run_until sim ~time:50.0;
  Array.iter
    (fun x -> if x < 0.0 then Alcotest.fail "negative PIAT")
    (Netsim.Trace.piats (Netsim.Tap.timestamps tap))

(* --- Receiver --- *)

let test_receiver_strips_dummies () =
  let sim = Desim.Sim.create () in
  let delivered = ref 0 in
  let recv = Padding.Receiver.create sim ~dest:(fun _ -> incr delivered) () in
  Padding.Receiver.port recv
    (Netsim.Packet.make ~kind:Netsim.Packet.Payload ~size_bytes:500 ~created:0.0);
  Padding.Receiver.port recv
    (Netsim.Packet.make ~kind:Netsim.Packet.Dummy ~size_bytes:500 ~created:0.0);
  Alcotest.(check int) "payload forwarded" 1 !delivered;
  Alcotest.(check int) "payload counted" 1 (Padding.Receiver.payload_received recv);
  Alcotest.(check int) "dummy counted" 1 (Padding.Receiver.dummy_received recv)

let test_receiver_latency_accounting () =
  let sim = Desim.Sim.create () in
  let recv = Padding.Receiver.create sim () in
  ignore
    (Desim.Sim.at sim ~time:3.0 (fun () ->
         Padding.Receiver.port recv
           (Netsim.Packet.make ~kind:Netsim.Packet.Payload ~size_bytes:500
              ~created:1.0)));
  Desim.Sim.run_until sim ~time:4.0;
  close "latency" 2.0 (Padding.Receiver.mean_payload_latency recv);
  close "max latency" 2.0 (Padding.Receiver.max_payload_latency recv)

let test_receiver_rejects_cross () =
  let sim = Desim.Sim.create () in
  let recv = Padding.Receiver.create sim () in
  Alcotest.check_raises "cross"
    (Invalid_argument "Receiver.port: cross packet reached the receiver gateway")
    (fun () ->
      Padding.Receiver.port recv
        (Netsim.Packet.make ~kind:Netsim.Packet.Cross ~size_bytes:500 ~created:0.0))

(* --- Adaptive --- *)

let test_adaptive_saves_bandwidth_at_low_rate () =
  let run rate seed =
    let sim = Desim.Sim.create () in
    let rng = Prng.Rng.create ~seed in
    let gw =
      Padding.Adaptive.create sim ~rng:(Prng.Rng.split rng)
        ~jitter:Padding.Jitter.none ~dest:(fun _ -> ()) ()
    in
    let _src =
      Netsim.Traffic_gen.poisson sim ~rng:(Prng.Rng.split rng) ~rate_pps:rate
        ~size_bytes:500 ~kind:Netsim.Packet.Payload
        ~dest:(Padding.Adaptive.input gw) ()
    in
    Desim.Sim.run_until sim ~time:120.0;
    gw
  in
  let low = run 10.0 130 and high = run 40.0 131 in
  Alcotest.(check bool) "lower overhead than CIT's 0.9 at 10pps" true
    (Padding.Adaptive.overhead low < 0.8);
  Alcotest.(check bool) "rate-dependent overhead (the leak)" true
    (Padding.Adaptive.overhead low > Padding.Adaptive.overhead high +. 0.1);
  Alcotest.(check bool) "period stays in band" true
    (Padding.Adaptive.current_period low >= 0.01
    && Padding.Adaptive.current_period low <= 0.04)

let test_adaptive_delivers_payload () =
  let sim = Desim.Sim.create () in
  let rng = Prng.Rng.create ~seed:132 in
  let delivered = ref 0 in
  let gw =
    Padding.Adaptive.create sim ~rng:(Prng.Rng.split rng)
      ~jitter:Padding.Jitter.none
      ~dest:(fun p ->
        if p.Netsim.Packet.kind = Netsim.Packet.Payload then incr delivered)
      ()
  in
  let src =
    Netsim.Traffic_gen.poisson sim ~rng:(Prng.Rng.split rng) ~rate_pps:20.0
      ~size_bytes:500 ~kind:Netsim.Packet.Payload
      ~dest:(Padding.Adaptive.input gw) ()
  in
  Desim.Sim.run_until sim ~time:60.0;
  Netsim.Traffic_gen.stop src;
  Desim.Sim.run_until sim ~time:70.0;
  let offered = Netsim.Traffic_gen.generated src in
  Alcotest.(check bool) "almost all delivered" true
    (!delivered >= offered - 5 && !delivered <= offered)

(* Adaptive is a period policy on [Gateway], so a payload NIC interrupt
   just before a fire blocks that fire's emission exactly as it does on
   a CIT gateway: with sigma = 0 and no payload extra, the 3 us context
   switch plus the blocking draw, the same instant bit for bit. *)
let test_adaptive_irq_blocking () =
  let jitter =
    Padding.Jitter.mechanistic ~context_switch_sigma:0.0 ~payload_extra_mu:0.0
      ~payload_extra_sigma:0.0 ()
  in
  let fire = Padding.Adaptive.max_period in
  let emission create input =
    let sim = Desim.Sim.create () in
    let sent = ref [] in
    let gw = create sim ~dest:(fun _ -> sent := Desim.Sim.now sim :: !sent) in
    let arrival = fire -. 10e-6 in
    ignore
      (Desim.Sim.at sim ~time:arrival (fun () ->
           input gw
             (Netsim.Packet.make ~kind:Netsim.Packet.Payload ~size_bytes:500
                ~created:arrival)));
    Desim.Sim.run_until sim ~time:(fire +. 0.001);
    match !sent with
    | [ t ] -> t
    | l -> Alcotest.failf "expected one emission, got %d" (List.length l)
  in
  let adaptive =
    emission
      (fun sim ~dest ->
        Padding.Adaptive.create sim ~rng:(Prng.Rng.create ~seed:134) ~jitter
          ~dest ())
      Padding.Adaptive.input
  in
  let cit =
    emission
      (fun sim ~dest ->
        Padding.Gateway.create sim ~rng:(Prng.Rng.create ~seed:134)
          ~timer:(Padding.Timer.Constant fire) ~jitter ~dest ())
      Padding.Gateway.input
  in
  Alcotest.(check bool)
    (Printf.sprintf "emission at %.9f s, after fire + 3 us" adaptive)
    true
    (adaptive > fire +. 3e-6);
  Alcotest.(check (float 0.0)) "same instant as the CIT gateway" cit adaptive

let suite =
  [
    Alcotest.test_case "timer means/sigmas" `Quick test_timer_means_and_sigmas;
    Alcotest.test_case "timer draw statistics" `Quick test_timer_draw_statistics;
    Alcotest.test_case "CIT draw exact" `Quick test_timer_cit_draw_exact;
    Alcotest.test_case "timer validation" `Quick test_timer_validation;
    Alcotest.test_case "jitter none" `Quick test_jitter_none;
    Alcotest.test_case "jitter nonnegative" `Quick test_jitter_nonnegative;
    Alcotest.test_case "payload path variance" `Quick test_mechanistic_payload_path_adds_variance;
    Alcotest.test_case "irq blocking" `Quick test_mechanistic_irq_blocking_adds_delay;
    Alcotest.test_case "parametric moments" `Quick test_parametric_moments;
    Alcotest.test_case "jitter invalid" `Quick test_jitter_invalid;
    Alcotest.test_case "gateway constant output" `Quick test_gateway_constant_output_rate;
    Alcotest.test_case "wire rate independent of payload" `Quick test_gateway_output_rate_independent_of_payload;
    Alcotest.test_case "payload conservation" `Quick test_gateway_payload_conservation;
    Alcotest.test_case "dummy fill" `Quick test_gateway_dummy_fill;
    Alcotest.test_case "exact PIAT without jitter" `Quick test_gateway_piat_near_period_without_jitter;
    Alcotest.test_case "payload FIFO" `Quick test_gateway_fifo_payload_order;
    Alcotest.test_case "gateway queue limit" `Quick test_gateway_queue_limit;
    Alcotest.test_case "gateway overflow drain" `Quick
      test_gateway_overflow_then_drain;
    Alcotest.test_case "gateway rejects non-payload" `Quick test_gateway_rejects_non_payload;
    Alcotest.test_case "gateway stop" `Quick test_gateway_stop;
    Alcotest.test_case "VIT PIAT sigma" `Quick test_gateway_vit_piat_sigma;
    Alcotest.test_case "monotone emissions" `Quick test_gateway_monotone_emissions;
    Alcotest.test_case "receiver strips dummies" `Quick test_receiver_strips_dummies;
    Alcotest.test_case "receiver latency" `Quick test_receiver_latency_accounting;
    Alcotest.test_case "receiver rejects cross" `Quick test_receiver_rejects_cross;
    Alcotest.test_case "adaptive saves bandwidth" `Quick test_adaptive_saves_bandwidth_at_low_rate;
    Alcotest.test_case "adaptive delivers payload" `Quick test_adaptive_delivers_payload;
    Alcotest.test_case "adaptive: NIC interrupt blocks the fire" `Quick
      test_adaptive_irq_blocking;
  ]
