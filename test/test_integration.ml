(* End-to-end integration: the assembled system, trace collection,
   scenario runners at tiny scale, and the Linkpad facade.  Shape
   assertions mirror the paper's qualitative claims. *)

let null_fmt =
  Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())

let close ?(tol = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > tol *. Float.max 1.0 (Float.abs expected)
  then Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* --- System --- *)

let test_system_run_counts () =
  let res = Scenarios.System.run Scenarios.System.default_config ~piats:500 in
  Alcotest.(check int) "exactly requested piats" 500
    (Array.length res.Scenarios.System.piats);
  Alcotest.(check bool) "positive piats" true
    (Array.for_all (fun x -> x > 0.0) res.Scenarios.System.piats);
  Alcotest.(check bool) "sim time sensible (~7s)" true
    (res.Scenarios.System.sim_time > 5.0 && res.Scenarios.System.sim_time < 60.0)

let test_system_deterministic_in_seed () =
  let a = Scenarios.System.run Scenarios.System.default_config ~piats:300 in
  let b = Scenarios.System.run Scenarios.System.default_config ~piats:300 in
  Alcotest.(check (array (float 0.0))) "same seed same trace"
    a.Scenarios.System.piats b.Scenarios.System.piats;
  let c =
    Scenarios.System.run
      { Scenarios.System.default_config with Scenarios.System.seed = 43 }
      ~piats:300
  in
  Alcotest.(check bool) "different seed differs" true
    (a.Scenarios.System.piats <> c.Scenarios.System.piats)

let test_system_piat_mean_is_tau () =
  let res = Scenarios.System.run Scenarios.System.default_config ~piats:5000 in
  close ~tol:1e-3 "mean PIAT = 10ms" 0.010
    (Stats.Descriptive.mean res.Scenarios.System.piats)

let test_system_overhead_tracks_rate () =
  let run rate =
    Scenarios.System.run
      { Scenarios.System.default_config with Scenarios.System.payload_rate_pps = rate }
      ~piats:3000
  in
  let low = run 10.0 and high = run 40.0 in
  close ~tol:0.05 "low-rate overhead ~0.9" 0.9 low.Scenarios.System.overhead;
  close ~tol:0.05 "high-rate overhead ~0.6" 0.6 high.Scenarios.System.overhead

let test_system_payload_delivery () =
  let res = Scenarios.System.run Scenarios.System.default_config ~piats:3000 in
  (* Nearly all offered payload should reach the receiver (queue drains). *)
  Alcotest.(check bool) "delivery" true
    (res.Scenarios.System.payload_delivered
     > (res.Scenarios.System.payload_offered * 9 / 10));
  Alcotest.(check bool) "latency positive and bounded" true
    (res.Scenarios.System.mean_payload_latency > 0.0
    && res.Scenarios.System.mean_payload_latency < 1.0)

let test_system_unpadded_rate () =
  let res =
    Scenarios.System.run_unpadded Scenarios.System.default_config ~packets:2000
  in
  (* Unpadded: PIAT mean ~ 1/rate = 0.1 s. *)
  close ~tol:0.05 "unpadded mean PIAT" 0.1
    (Stats.Descriptive.mean res.Scenarios.System.piats)

let test_system_adaptive_runs () =
  let res =
    Scenarios.System.run_adaptive Scenarios.System.default_config ~piats:1000
  in
  Alcotest.(check int) "piats collected" 1000
    (Array.length res.Scenarios.System.piats);
  Alcotest.(check bool) "overhead below CIT's 0.9" true
    (res.Scenarios.System.overhead < 0.85)

let test_system_invalid () =
  Alcotest.check_raises "piats < 1" (Invalid_argument "System.run: piats < 1")
    (fun () ->
      ignore (Scenarios.System.run Scenarios.System.default_config ~piats:0))

(* --- Workload --- *)

let test_workload_pair_r_hat () =
  let traces =
    Scenarios.Workload.collect_pair ~base:Scenarios.System.default_config
      ~piats:8000
  in
  Alcotest.(check bool) "r_hat in the calibrated band" true
    (traces.Scenarios.Workload.r_hat > 1.3 && traces.Scenarios.Workload.r_hat < 2.8)

let test_workload_score_sanity () =
  let traces =
    Scenarios.Workload.collect_pair ~base:Scenarios.System.default_config
      ~piats:(200 * 40)
  in
  let scores =
    Scenarios.Workload.score traces ~features:Adversary.Feature.standard_set
      ~sample_size:200
  in
  Alcotest.(check int) "three features" 3 (List.length scores);
  List.iter
    (fun (s : Scenarios.Workload.scored) ->
      Alcotest.(check bool) "empirical in [0,1]" true
        (s.Scenarios.Workload.empirical >= 0.0 && s.Scenarios.Workload.empirical <= 1.0);
      Alcotest.(check bool) "theory in [0.5,1]" true
        (s.Scenarios.Workload.theory >= 0.5 && s.Scenarios.Workload.theory <= 1.0))
    scores

(* --- The paper's central claims at reduced scale --- *)

let test_cit_leaks_through_variance_and_entropy () =
  let traces =
    Scenarios.Workload.collect_pair ~base:Scenarios.System.default_config
      ~piats:(500 * 40)
  in
  let scores =
    Scenarios.Workload.score traces ~features:Adversary.Feature.standard_set
      ~sample_size:500
  in
  List.iter
    (fun (s : Scenarios.Workload.scored) ->
      match s.Scenarios.Workload.feature with
      | Adversary.Feature.Sample_mean ->
          Alcotest.(check bool) "mean weak" true (s.Scenarios.Workload.empirical < 0.8)
      | Adversary.Feature.Sample_variance | Adversary.Feature.Sample_entropy _ ->
          Alcotest.(check bool)
            (Adversary.Feature.name s.Scenarios.Workload.feature ^ " strong")
            true
            (s.Scenarios.Workload.empirical > 0.9))
    scores

let test_vit_restores_secrecy () =
  let base =
    {
      Scenarios.System.default_config with
      Scenarios.System.timer =
        Padding.Timer.Normal { mean = Scenarios.Calibration.timer_mean; sigma = 50e-6 };
    }
  in
  let traces = Scenarios.Workload.collect_pair ~base ~piats:(500 * 40) in
  let scores =
    Scenarios.Workload.score traces ~features:Adversary.Feature.standard_set
      ~sample_size:500
  in
  List.iter
    (fun (s : Scenarios.Workload.scored) ->
      Alcotest.(check bool)
        (Adversary.Feature.name s.Scenarios.Workload.feature ^ " near floor")
        true
        (s.Scenarios.Workload.empirical < 0.75))
    scores

let test_detection_grows_with_sample_size () =
  let traces =
    Scenarios.Workload.collect_pair ~base:Scenarios.System.default_config
      ~piats:(800 * 40)
  in
  let v n =
    match
      Scenarios.Workload.score traces
        ~features:[ Adversary.Feature.Sample_variance ] ~sample_size:n
    with
    | [ s ] -> s.Scenarios.Workload.empirical
    | _ -> assert false
  in
  Alcotest.(check bool) "v(800) > v(50) - slack" true (v 800 > v 50 -. 0.05);
  Alcotest.(check bool) "v(800) nearly 1" true (v 800 > 0.85)

let test_cross_traffic_lowers_r () =
  let with_util utilization =
    let hops =
      if utilization = 0.0 then [||]
      else [| Scenarios.Fig6.hop_for_utilization ~utilization ~burst:`Poisson |]
    in
    let base =
      {
        Scenarios.System.default_config with
        Scenarios.System.hops;
        tap_position = Array.length hops;
      }
    in
    (Scenarios.Workload.collect_pair ~base ~piats:6000).Scenarios.Workload.r_hat
  in
  let r0 = with_util 0.0 and r3 = with_util 0.3 in
  Alcotest.(check bool) "cross traffic drives r down" true (r3 < r0 -. 0.2)

(* --- Figure runners at tiny scale (smoke + shape) --- *)

let test_fig4a_shape () =
  let t = Scenarios.Fig4a.run ~scale:0.08 ~seed:91_001 null_fmt in
  close ~tol:2e-4 "means equal (low)" Scenarios.Calibration.timer_mean
    t.Scenarios.Fig4a.low.Scenarios.Fig4a.mean;
  close ~tol:2e-4 "means equal (high)" Scenarios.Calibration.timer_mean
    t.Scenarios.Fig4a.high.Scenarios.Fig4a.mean;
  Alcotest.(check bool) "sigma_h > sigma_l" true
    (t.Scenarios.Fig4a.high.Scenarios.Fig4a.std
    > t.Scenarios.Fig4a.low.Scenarios.Fig4a.std);
  Alcotest.(check bool) "r > 1" true (t.Scenarios.Fig4a.r_hat > 1.0);
  Alcotest.(check bool) "density grid populated" true
    (Array.length t.Scenarios.Fig4a.density_grid > 0)

let test_fig4b_shape () =
  let t =
    Scenarios.Fig4b.run ~scale:0.15 ~seed:91_002 ~sample_sizes:[ 50; 400 ]
      null_fmt
  in
  let find n feature =
    List.find
      (fun (s : Scenarios.Workload.scored) ->
        s.Scenarios.Workload.sample_size = n
        && Adversary.Feature.name s.Scenarios.Workload.feature = feature)
      t.Scenarios.Fig4b.rows
  in
  let v400 = (find 400 "variance").Scenarios.Workload.empirical in
  Alcotest.(check bool) "variance strong at n=400" true (v400 > 0.8);
  let m400 = (find 400 "mean").Scenarios.Workload.empirical in
  Alcotest.(check bool) "mean weak" true (m400 < 0.85)

let test_fig5b_monotone () =
  let points = Scenarios.Fig5b.run ~seed:91_003 null_fmt in
  let ns = List.map (fun p -> p.Scenarios.Fig5b.n_variance) points in
  let rec is_increasing = function
    | a :: (b :: _ as rest) -> a <= b && is_increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "n(99%) increasing in sigma_T" true (is_increasing ns);
  let last = List.nth points (List.length points - 1) in
  Alcotest.(check bool) "headline: n > 1e11 at 1ms" true
    (last.Scenarios.Fig5b.n_variance > 1e11)

let test_multirate_shape () =
  let t = Scenarios.Multirate.run ~scale:0.2 ~seed:91_004 ~sample_size:400 null_fmt in
  let var_rate =
    List.assoc Adversary.Feature.Sample_variance t.Scenarios.Multirate.results
  in
  Alcotest.(check bool) "better than 4-ary chance" true (var_rate > 0.3);
  let m = Array.length t.Scenarios.Multirate.confusion in
  Alcotest.(check int) "confusion is m x m" 4 m;
  (* Diagonal should dominate off-diagonal on average for variance. *)
  let diag = ref 0 and total = ref 0 in
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun j c ->
          total := !total + c;
          if i = j then diag := !diag + c)
        row)
    t.Scenarios.Multirate.confusion;
  Alcotest.(check bool) "diagonal mass above chance" true
    (float_of_int !diag /. float_of_int !total > 0.3)

(* --- Ablation runners (cheap paths; the heavy ones run in bench) --- *)

let test_bounds_table_runs () =
  (* Pure analytics; also re-checks the sandwich property via its rows. *)
  Scenarios.Ablations_ext.run_bounds_table null_fmt

let test_qos_table_close_to_theory () =
  let rows = Scenarios.Ablations_ext.run_qos_table ~seed:92_001 null_fmt in
  Alcotest.(check int) "five sweep points" 5 (List.length rows);
  List.iter
    (fun (rate, analytic, simulated) ->
      let ratio = simulated /. analytic in
      if ratio < 0.8 || ratio > 1.2 then
        Alcotest.failf "timer %.0f pps: simulated/analytic = %.3f" rate ratio)
    rows

let test_size_padding_ablation_shape () =
  let rows = Scenarios.Ablations_ext.run_size_padding ~seed:92_002 null_fmt in
  List.iter
    (fun (config, feature, v) ->
      match config with
      | "unpadded sizes" ->
          Alcotest.(check bool) (feature ^ " leaks") true (v > 0.9)
      | _ -> Alcotest.(check bool) (feature ^ " sealed") true (v < 0.8))
    rows

(* --- Table --- *)

let test_table_rendering_and_csv () =
  let t = Scenarios.Table.create ~title:"T" ~columns:[ "a"; "b" ] in
  Scenarios.Table.add_row t [ "1"; "x,y" ];
  Scenarios.Table.add_row t [ "2"; "z\"q" ];
  let csv = Scenarios.Table.to_csv t in
  Alcotest.(check bool) "quotes comma cell" true
    (String.length csv > 0
    &&
    let lines = String.split_on_char '\n' csv in
    List.exists (fun l -> l = "1,\"x,y\"") lines
    && List.exists (fun l -> l = "2,\"z\"\"q\"") lines);
  Alcotest.check_raises "width" (Invalid_argument "Table.add_row: width mismatch")
    (fun () -> Scenarios.Table.add_row t [ "only one" ])

let test_diurnal_profile () =
  close "activity min at 4am" 0.0 (Scenarios.Diurnal.activity ~hour:4.0);
  close "activity max at 16h" 1.0 (Scenarios.Diurnal.activity ~hour:16.0);
  close "wraps" (Scenarios.Diurnal.activity ~hour:1.0)
    (Scenarios.Diurnal.activity ~hour:25.0);
  Alcotest.(check bool) "wan heavier than campus" true
    (Scenarios.Diurnal.wan_congested_utilization ~hour:12.0
    > Scenarios.Diurnal.campus_utilization ~hour:12.0);
  Alcotest.(check bool) "utilizations in (0,1)" true
    (List.for_all
       (fun h ->
         let u = Scenarios.Diurnal.wan_congested_utilization ~hour:h in
         u > 0.0 && u < 1.0)
       [ 0.; 4.; 8.; 12.; 16.; 20. ])

(* --- Linkpad facade --- *)

let test_linkpad_cit_report () =
  let report =
    Linkpad.evaluate
      {
        Linkpad.default_spec with
        Linkpad.sample_size = 400;
        windows_per_class = 12;
        seed = 91_005;
      }
  in
  Alcotest.(check int) "three features" 3 (List.length report.Linkpad.features);
  Alcotest.(check bool) "CIT leaks" true (report.Linkpad.worst_detection > 0.8);
  Alcotest.(check bool) "r_hat > 1" true (report.Linkpad.r_hat > 1.0);
  close ~tol:0.05 "overhead" 0.9 report.Linkpad.overhead;
  (* pp_report doesn't raise *)
  Linkpad.pp_report null_fmt report

let test_linkpad_vit_report () =
  let report =
    Linkpad.evaluate
      {
        Linkpad.default_spec with
        Linkpad.padding = Linkpad.Vit { sigma_t = 100e-6 };
        sample_size = 400;
        windows_per_class = 12;
        seed = 91_006;
      }
  in
  Alcotest.(check bool) "VIT protects" true (report.Linkpad.worst_detection < 0.85);
  Alcotest.(check bool) "r_hat ~ 1" true (report.Linkpad.r_hat < 1.05)

let test_linkpad_invalid () =
  Alcotest.check_raises "vit sigma" (Invalid_argument "Linkpad: Vit sigma_t <= 0")
    (fun () ->
      ignore
        (Linkpad.evaluate
           {
             Linkpad.default_spec with
             Linkpad.padding = Linkpad.Vit { sigma_t = 0.0 };
             windows_per_class = 8;
           }))

let test_linkpad_recommend () =
  let sigma = Linkpad.recommend_sigma_t ~seed:91_007 ~v_max:0.55 ~n_max:10_000 () in
  Alcotest.(check bool) "positive recommendation" true (sigma > 0.0);
  let sigma_strict =
    Linkpad.recommend_sigma_t ~seed:91_007 ~v_max:0.51 ~n_max:10_000 ()
  in
  Alcotest.(check bool) "stricter budget -> larger sigma" true (sigma_strict > sigma)

(* --- fleet end-to-end --- *)

let test_fleet_median_matches_single_flow () =
  (* The fleet sweep's per-flow detection distribution and a plain
     single-flow windowed estimate measure the same underlying quantity
     (CIT at the calibration rates): the fleet median must sit near the
     single-flow detection rate at matched parameters, far above the 0.5
     guessing floor. *)
  let plan = Scenarios.Workload.window_plan ~sample_size:100 ~max_windows:16 () in
  let _pair, scored =
    Scenarios.Workload.collect_windowed ~base:Scenarios.System.default_config
      ~plan
      ~features:[ Adversary.Feature.Sample_variance ]
  in
  let single =
    match scored with
    | s :: _ -> s.Scenarios.Workload.empirical
    | [] -> Alcotest.fail "no scored feature"
  in
  let p =
    Scenarios.Fleet.evaluate ~sample_size:100 ~max_windows:16 ~seed:48_000
      ~flows:50 ~gateways:4 ~probes:5 ~duration:0.5 ()
  in
  Alcotest.(check int) "all probes ran" 5 (Array.length p.Scenarios.Fleet.vs);
  Alcotest.(check bool) "fleet median above the guessing floor" true
    (p.Scenarios.Fleet.v_p50 > 0.5);
  Alcotest.(check bool) "single-flow detection above the floor" true
    (single > 0.5);
  let gap = Float.abs (p.Scenarios.Fleet.v_p50 -. single) in
  if gap > 0.15 then
    Alcotest.failf
      "fleet median %.3f vs single-flow %.3f: gap %.3f exceeds 0.15"
      p.Scenarios.Fleet.v_p50 single gap;
  (* The pooled Wilson interval is a real interval containing the mean. *)
  Alcotest.(check bool) "wilson brackets the pooled mean" true
    (p.Scenarios.Fleet.wilson.Stats.Confidence.lo
     <= p.Scenarios.Fleet.wilson.Stats.Confidence.hi
    && p.Scenarios.Fleet.trials > 0)

(* --- Known answers for every System.run* entry point ---

   MD5 over the PIAT bits and the QoS fields of each entry point, on a
   2-hop chain with the tap after hop 1.  Recorded before the entry
   points shared one event-loop driver: a rewiring that moves any draw,
   event or counter fails here, not only in the figure-table digests. *)

let digest piats ~floats ~ints =
  Array.to_list piats @ floats @ List.map float_of_int ints
  |> List.map (Printf.sprintf "%h")
  |> String.concat "|" |> Digest.string |> Digest.to_hex

let system_digest (r : Scenarios.System.result) =
  let open Scenarios.System in
  digest r.piats
    ~floats:[ r.overhead; r.mean_payload_latency; r.sim_time ]
    ~ints:[ r.payload_offered; r.payload_delivered; r.payload_dropped_gw ]

let test_known_answers () =
  let module S = Scenarios.System in
  let module D = Scenarios.Degradation in
  let hop burst rate_pps =
    {
      Netsim.Topology.bandwidth_bps = 1e6;
      propagation = 0.001;
      queue_limit = None;
      cross = Some { Netsim.Topology.rate_pps; size_bytes = 400; burst };
    }
  in
  let cfg =
    {
      S.default_config with
      seed = 2024;
      warmup_piats = 50;
      hops = [| hop `Poisson 150.0; hop `Poisson 100.0 |];
      tap_position = 1;
    }
  in
  let run ?(kernel = true) cfg =
    let was = Scenarios.Fastpath.enabled () in
    Scenarios.Fastpath.set_enabled kernel;
    Fun.protect ~finally:(fun () -> Scenarios.Fastpath.set_enabled was)
    @@ fun () -> system_digest (S.run cfg ~piats:300)
  in
  let faulty () =
    let r =
      D.run_faulty
        {
          D.default_config with
          seed = 2024;
          warmup_piats = 50;
          profile = D.profile_of_intensity 0.1;
        }
        ~piats:300
    in
    digest r.D.piats
      ~floats:[ r.overhead; r.gw_downtime; r.mean_payload_latency; r.sim_time ]
      ~ints:
        [
          r.payload_offered; r.payload_delivered; r.payload_dropped_gw;
          r.lost_wire; r.lost_outage; r.lost_crash; r.crashes;
        ]
  in
  let onoff = Array.make 2 (hop (`On_off (0.1, 0.4, None)) 120.0) in
  List.iter
    (fun (name, expected, digest) ->
      Alcotest.(check string) name expected (digest ()))
    [
      ("run, kernel", "90509a41c1f39d835dfac5d0446f2a57", fun () -> run cfg);
      ( "run, event loop",
        "90509a41c1f39d835dfac5d0446f2a57",
        fun () -> run ~kernel:false cfg );
      ( "run, CBR payload",
        "d636585cde0b86cc27698e774f079d2b",
        fun () -> run { cfg with payload_model = S.Cbr_payload } );
      ( "run, on/off cross",
        "358920ea9c4af29c7145baf43d311cf1",
        fun () -> run { cfg with hops = onoff } );
      ( "run_mix",
        "25e32092813a2650216134c4a39099a9",
        fun () -> system_digest (S.run_mix cfg ~piats:300) );
      ( "run_adaptive",
        "6333662e815a0d5dce0e1dd6ee24061d",
        fun () -> system_digest (S.run_adaptive cfg ~piats:300) );
      ( "run_unpadded",
        "5f081b9fc7b3d3cef604417a75461c4a",
        fun () -> system_digest (S.run_unpadded cfg ~packets:300) );
      ("Degradation.run_faulty", "b2652e65bcb9e320fcf3938561ba1410", faulty);
    ]

(* Known answers for the three ablations that hand the class pair a
   per-class run of their own (per-rate jitter, adaptive padding, the
   mix): their table digests at a small scale. *)
let test_pair_ablation_known_answers () =
  let printed_digest title =
    match
      List.rev
        (List.filter
           (fun (t, _) -> t = title)
           (Scenarios.Table.printed_digests ()))
    with
    | (_, d) :: _ -> d
    | [] -> Alcotest.fail ("table not printed: " ^ title)
  in
  List.iter
    (fun (title, expected, run) ->
      run ();
      Alcotest.(check string) title expected (printed_digest title))
    [
      ( "Ablation: mechanistic vs parametric gateway jitter (n=1000)",
        "ea975e859fda2294f1663a7396b47789",
        fun () ->
          ignore
            (Scenarios.Ablations.run_jitter_models ~scale:0.05 ~seed:93_001
               null_fmt) );
      ( "Ablation: padding scheme vs detectability and bandwidth cost (n=500)",
        "20d1e4da044916963a976390108d9fb1",
        fun () ->
          ignore
            (Scenarios.Ablations.run_adaptive_vs_cit ~scale:0.05 ~seed:93_002
               null_fmt) );
      ( "Ablation: mixing vs padding as rate-hiding (n=200)",
        "e6114d5fc50e810940a9e0e681d86b4a",
        fun () ->
          ignore
            (Scenarios.Ablations_ext.run_mix_vs_padding ~scale:0.05
               ~seed:93_003 null_fmt) );
    ]

(* Known answers for event-loop configs whose hops drop, delay and
   divert cross traffic: on/off (Pareto) bursts into a short queue, CBR
   payload behind Poisson cross traffic, and propagation delays on
   loaded hops.  The digest covers the result and the [netsim.*] and
   [padding.*] metric totals (drops, enqueues, link queue high-water
   marks, utilization), so a cross departure settled out of its
   event-loop order moves it.  Recorded before cross traffic lost its
   departure events. *)
let test_event_loop_known_answers () =
  let module S = Scenarios.System in
  let hop ?(prop = 0.0) ?qlimit burst rate_pps =
    {
      Netsim.Topology.bandwidth_bps = 1e6;
      propagation = prop;
      queue_limit = qlimit;
      cross = Some { Netsim.Topology.rate_pps; size_bytes = 400; burst };
    }
  in
  let run cfg =
    let was = Scenarios.Fastpath.enabled () in
    Scenarios.Fastpath.set_enabled false;
    Obs.Metrics.reset ();
    Fun.protect ~finally:(fun () -> Scenarios.Fastpath.set_enabled was)
    @@ fun () ->
    let r = S.run { cfg with S.warmup_piats = 50 } ~piats:300 in
    let metrics prefix =
      Format.asprintf "%a" Obs.Metrics.Snapshot.pp
        (Obs.Metrics.Snapshot.filter_prefix prefix (Obs.Metrics.snapshot ()))
    in
    Digest.to_hex
      (Digest.string (system_digest r ^ metrics "netsim." ^ metrics "padding."))
  in
  List.iter
    (fun (name, expected, cfg) ->
      Alcotest.(check string) name expected (run cfg))
    [
      ( "on/off Pareto cross, queue limit 3",
        "b4f83b669480edb7aa2e51ec6713b515",
        {
          S.default_config with
          seed = 2025;
          hops = [| hop ~qlimit:3 (`On_off (0.02, 0.03, Some 2.5)) 250.0 |];
          tap_position = 1;
        } );
      ( "CBR payload behind Poisson cross",
        "1134c6576d91d8997c38385d2e15d56e",
        {
          S.default_config with
          seed = 2026;
          payload_model = S.Cbr_payload;
          hops =
            [| hop ~qlimit:2 `Poisson 150.0; hop ~prop:0.002 `Poisson 100.0 |];
          tap_position = 2;
        } );
      ( "propagation on loaded hops",
        "b0ef2f78107e8ec87eef7d11c753d52d",
        {
          S.default_config with
          seed = 2027;
          hops =
            [|
              hop ~prop:0.003 ~qlimit:4 `Poisson 200.0;
              hop ~prop:0.001 (`On_off (0.1, 0.4, None)) 120.0;
            |];
          tap_position = 1;
        } );
    ]

let suite =
  [
    Alcotest.test_case "system run counts" `Quick test_system_run_counts;
    Alcotest.test_case "system deterministic" `Quick test_system_deterministic_in_seed;
    Alcotest.test_case "PIAT mean = tau" `Quick test_system_piat_mean_is_tau;
    Alcotest.test_case "overhead tracks rate" `Quick test_system_overhead_tracks_rate;
    Alcotest.test_case "payload delivery + QoS" `Quick test_system_payload_delivery;
    Alcotest.test_case "unpadded baseline rate" `Quick test_system_unpadded_rate;
    Alcotest.test_case "adaptive system runs" `Quick test_system_adaptive_runs;
    Alcotest.test_case "system invalid" `Quick test_system_invalid;
    Alcotest.test_case "workload r_hat band" `Quick test_workload_pair_r_hat;
    Alcotest.test_case "workload score sanity" `Quick test_workload_score_sanity;
    Alcotest.test_case "CLAIM: CIT leaks (var/entropy)" `Slow test_cit_leaks_through_variance_and_entropy;
    Alcotest.test_case "CLAIM: VIT restores secrecy" `Slow test_vit_restores_secrecy;
    Alcotest.test_case "CLAIM: detection grows with n" `Slow test_detection_grows_with_sample_size;
    Alcotest.test_case "CLAIM: cross traffic lowers r" `Slow test_cross_traffic_lowers_r;
    Alcotest.test_case "fig4a shape" `Slow test_fig4a_shape;
    Alcotest.test_case "fig4b shape" `Slow test_fig4b_shape;
    Alcotest.test_case "fig5b monotone + headline" `Quick test_fig5b_monotone;
    Alcotest.test_case "multirate shape" `Slow test_multirate_shape;
    Alcotest.test_case "fleet median = single-flow detection" `Slow
      test_fleet_median_matches_single_flow;
    Alcotest.test_case "bounds table runs" `Quick test_bounds_table_runs;
    Alcotest.test_case "qos table near theory" `Slow test_qos_table_close_to_theory;
    Alcotest.test_case "size-padding ablation shape" `Slow test_size_padding_ablation_shape;
    Alcotest.test_case "table render + csv" `Quick test_table_rendering_and_csv;
    Alcotest.test_case "diurnal profile" `Quick test_diurnal_profile;
    Alcotest.test_case "linkpad CIT report" `Slow test_linkpad_cit_report;
    Alcotest.test_case "linkpad VIT report" `Slow test_linkpad_vit_report;
    Alcotest.test_case "linkpad invalid" `Quick test_linkpad_invalid;
    Alcotest.test_case "linkpad recommend" `Quick test_linkpad_recommend;
    Alcotest.test_case "known answers: every System.run* entry point" `Quick
      test_known_answers;
    Alcotest.test_case "known answers: class-pair ablation tables" `Quick
      test_pair_ablation_known_answers;
    Alcotest.test_case "known answers: event-loop cross traffic" `Quick
      test_event_loop_known_answers;
  ]
