(* Benchmark harness: regenerates every table/figure of the paper's
   evaluation section (Figures 4-8, the multi-rate extension, and the
   design-choice ablations), then runs Bechamel micro-benchmarks of the
   hot kernels.

     dune exec bench/main.exe                 # full fidelity (~minutes)
     dune exec bench/main.exe -- --scale 0.2  # quick pass
     dune exec bench/main.exe -- --only fig4b,fig6
     dune exec bench/main.exe -- --jobs 8     # parallel sweeps, same output
     dune exec bench/main.exe -- --no-micro --json bench.json *)

let fmt = Format.std_formatter

let scale = ref 1.0
let seed = ref 42_000
let only = ref "all"
let csv_dir = ref ""
let run_micro = ref true
let jobs = ref 0 (* 0 = auto: EXEC_JOBS or available cores *)
let json_path = ref ""
let trace_path = ref ""
let check_trace = ref false
let intensities : float list option ref = ref None
let checkpoint = ref ""
let retries = ref (-1) (* -1 = library default *)
let strict = ref false
let inject = ref ""
let event_budget = ref 0 (* 0 = disarmed *)
let half_width : float option ref = ref None

let known_figures =
  [
    "fig4a"; "fig4b"; "fig5a"; "fig5b"; "fig6"; "fig8a"; "fig8b"; "multirate";
    "faults"; "fleet"; "ablations";
  ]

let args =
  [
    ("--scale", Arg.Set_float scale, "FACTOR workload scale (default 1.0)");
    ("--seed", Arg.Set_int seed, "SEED root seed (default 42000)");
    ( "--only",
      Arg.Set_string only,
      "LIST comma-separated figure ids (" ^ String.concat "," known_figures
      ^ "); default all" );
    ("--csv", Arg.Set_string csv_dir, "DIR write CSV copies of the tables");
    ("--no-micro", Arg.Clear run_micro, " skip Bechamel micro-benchmarks");
    ( "--no-kernel",
      Arg.Unit (fun () -> Scenarios.Fastpath.set_enabled false),
      " force every System.run onto the event loop (disable the fused \
       gateway kernels; output is bit-identical either way)" );
    ( "--jobs",
      Arg.Int
        (fun n ->
          if n < 1 then raise (Arg.Bad "--jobs must be >= 1");
          jobs := n),
      "N worker domains for the scenario sweeps (default: EXEC_JOBS or \
       available cores; output is bit-identical at any N)" );
    ( "--json",
      Arg.Set_string json_path,
      "FILE write the ta-bench/3 report (stages, spans, metrics, table \
       digests, micro) as JSON" );
    ( "--trace",
      Arg.Set_string trace_path,
      "FILE write a ta-trace/1 JSONL event trace of every simulation run" );
    ( "--check-trace",
      Arg.Set check_trace,
      " after the run, validate the --trace file against ta-trace/1 (exit \
       1 on violation)" );
    ( "--intensities",
      Arg.String
        (fun s ->
          let parse_one tok =
            match float_of_string_opt tok with
            | Some x when Float.is_finite x && x >= 0.0 && x <= 1.0 -> x
            | Some _ | None ->
                raise
                  (Arg.Bad
                     (Printf.sprintf "intensity %S outside [0, 1]" tok))
          in
          intensities := Some (List.map parse_one (String.split_on_char ',' s))),
      "LIST comma-separated fault intensities in [0,1] for the faults \
       stage (default 0,0.02,0.05,0.1,0.2,0.4)" );
    ( "--checkpoint",
      Arg.Set_string checkpoint,
      "DIR journal completed sweep points to DIR (ta-ckpt/1) and resume \
       from it on rerun; resumed output is byte-identical at any --jobs" );
    ( "--retries",
      Arg.Int
        (fun n ->
          if n < 0 then raise (Arg.Bad "--retries must be >= 0");
          retries := n),
      "N re-attempts before a failing sweep point is quarantined (default 2)" );
    ( "--strict",
      Arg.Set strict,
      " disable failure containment: the first failing sweep point aborts \
       the run (tap starvation keeps its historical exit 3)" );
    ( "--inject-fail",
      Arg.Set_string inject,
      "SPEC fault injection: comma-separated SWEEP:INDEX or SWEEP:INDEX@K \
       (fails attempts < K)" );
    ( "--event-budget",
      Arg.Int
        (fun n ->
          if n < 1 then raise (Arg.Bad "--event-budget must be >= 1");
          event_budget := n),
      "N per-point simulator event budget (watchdog against runaway points)" );
    ( "--half-width",
      Arg.Float
        (fun h ->
          if not (h > 0.0 && h < 0.5) then
            raise (Arg.Bad "--half-width must be in (0, 0.5)");
          half_width := Some h),
      "H stop windowed collection (fig6/fig8) once every feature's 95% \
       Wilson CI half-width is <= H (deterministic; default: collect to \
       the scaled window cap)" );
  ]

let wanted id =
  !only = "all" || List.mem id (String.split_on_char ',' !only)

(* Per-stage wall-clock seconds, in completion order, for --json. *)
let stage_times : (string * float) list ref = ref []

let timed id f =
  if wanted id then begin
    let t0 = Unix.gettimeofday () in
    Obs.span id f;
    let dt = Unix.gettimeofday () -. t0 in
    stage_times := (id, dt) :: !stage_times;
    Format.fprintf fmt "[%s done in %.1f s]@." id dt
  end

let csv () = if !csv_dir = "" then None else Some !csv_dir

(* Fleet mux throughput at fixed fleet sizes — deliberately NOT scaled by
   --scale so the flows/s numbers are comparable across runs.  Durations
   shrink as fleets grow to hold each case at ~500k arrivals; every shard
   simulation runs under an explicit event budget so a runaway 1M-flow
   case dies with Event_budget_exceeded instead of hanging the bench.
   Reported to the ta-bench/3 "micro" list as ns/flow (lower is better);
   the stdout lines end in "done in X s]" like the stage markers, so CI's
   jobs-invariance diff filters them alongside the other wall-clock
   lines. *)
let fleet_micro : (string * float * float) list ref = ref []

let fleet_throughput () =
  List.iter
    (fun (flows, duration) ->
      let cfg =
        { Fleet.Mux.default_config with flows; duration; seed = !seed + 31 }
      in
      let env_for _gateway =
        let sim = Desim.Sim.create () in
        Desim.Sim.set_event_budget sim ~max_events:4_000_000;
        { Fleet.Mux.sim; gw_buffers = None }
      in
      let t0 = Unix.gettimeofday () in
      let r = Fleet.Mux.run ~env_for cfg in
      let dt = Unix.gettimeofday () -. t0 in
      Format.fprintf fmt
        "[fleet.mux %d flows: %.3e flows/s, %.3e ev/s, done in %.2f s]@."
        flows
        (float_of_int flows /. dt)
        (float_of_int r.Fleet.Mux.events_processed /. dt)
        dt;
      fleet_micro :=
        ( Printf.sprintf "fleet.mux_ns_per_flow_%dk" (flows / 1000),
          dt *. 1e9 /. float_of_int flows,
          Float.nan )
        :: !fleet_micro)
    [ (10_000, 2.0); (100_000, 0.2); (1_000_000, 0.02) ]

let run_figures () =
  let scale = !scale and s = !seed in
  Scenarios.Calibration.print_setup fmt;
  timed "fig4a" (fun () ->
      ignore (Scenarios.Fig4a.run ~scale ~seed:(s + 1) ?csv_dir:(csv ()) fmt));
  timed "fig4b" (fun () ->
      ignore (Scenarios.Fig4b.run ~scale ~seed:(s + 2) ?csv_dir:(csv ()) fmt));
  timed "fig5a" (fun () ->
      ignore (Scenarios.Fig5a.run ~scale ~seed:(s + 3) ?csv_dir:(csv ()) fmt));
  timed "fig5b" (fun () ->
      ignore (Scenarios.Fig5b.run ~seed:(s + 4) ?csv_dir:(csv ()) fmt));
  timed "fig6" (fun () ->
      ignore
        (Scenarios.Fig6.run ~scale ~seed:(s + 5) ?half_width:!half_width
           ?csv_dir:(csv ()) fmt));
  timed "fig8a" (fun () ->
      ignore
        (Scenarios.Fig8.run ~scale ~seed:(s + 6) ?half_width:!half_width
           ~kind:Scenarios.Fig8.Campus ?csv_dir:(csv ()) fmt));
  timed "fig8b" (fun () ->
      ignore
        (Scenarios.Fig8.run ~scale ~seed:(s + 7) ?half_width:!half_width
           ~kind:Scenarios.Fig8.Wan ?csv_dir:(csv ()) fmt));
  timed "multirate" (fun () ->
      ignore (Scenarios.Multirate.run ~scale ~seed:(s + 8) ?csv_dir:(csv ()) fmt));
  timed "faults" (fun () ->
      ignore
        (Scenarios.Degradation.run ~scale ~seed:(s + 20)
           ?intensities:!intensities ?csv_dir:(csv ()) fmt));
  timed "fleet" (fun () ->
      ignore (Scenarios.Fleet.run ~scale ~seed:(s + 21) ?csv_dir:(csv ()) fmt);
      fleet_throughput ());
  timed "ablations" (fun () ->
      ignore (Scenarios.Ablations.run_jitter_models ~scale ~seed:(s + 9) fmt);
      ignore (Scenarios.Ablations.run_vit_laws ~scale ~seed:(s + 10) fmt);
      ignore (Scenarios.Ablations.run_entropy_bins ~scale ~seed:(s + 11) fmt);
      ignore (Scenarios.Ablations.run_tap_positions ~scale ~seed:(s + 12) fmt);
      ignore (Scenarios.Ablations.run_oracle_vs_kde ~scale ~seed:(s + 13) fmt);
      ignore (Scenarios.Ablations.run_adaptive_vs_cit ~scale ~seed:(s + 14) fmt);
      ignore (Scenarios.Ablations_ext.run_classifier_backends ~scale ~seed:(s + 15) fmt);
      ignore (Scenarios.Ablations_ext.run_mix_vs_padding ~scale ~seed:(s + 16) fmt);
      ignore (Scenarios.Ablations_ext.run_size_padding ~seed:(s + 18) fmt);
      ignore (Scenarios.Ablations_ext.run_roc ~scale ~seed:(s + 19) fmt);
      Scenarios.Ablations_ext.run_bounds_table fmt;
      ignore (Scenarios.Ablations_ext.run_qos_table ~seed:(s + 17) fmt))

(* --- Bechamel micro-benchmarks of the hot kernels --- *)

(* Fused-kernel path vs the event loop on the same ~1e6-event run (8k pps
   payload through a 10k fires/s gateway for ~330k PIATs).  Both paths
   produce bit-identical results; the kernel/eventloop ns ratio is the
   fused-dispatch speedup. *)
(* Jitter.none, not the default mechanistic model: at 8k pps the IRQ
   blocking sum costs ~800 exponential draws per fire on BOTH paths and
   would swamp the dispatch difference this micro isolates.  The 5-hop
   uncongested chain raises the event density per tap observation
   (arrival + fire + emission + 5 transmit-finishes + 5 deliveries
   ≈ 13 events per PIAT), so the measurement weighs per-event dispatch,
   not the per-observation recording work both paths share. *)
(* Arrival-heavy single-gateway workload: Poisson payload at 4x the fire
   rate keeps every event time on a continuous distribution (no exact-tie
   fallbacks, unlike CIT hop chains whose constant service/propagation
   delays put all times on a shared lattice) and weights the mix toward
   arrival events, the cheapest path through the fused kernel. *)
let kernel_micro_cfg timer =
  {
    Scenarios.System.default_config with
    timer;
    jitter = Padding.Jitter.none;
    payload_rate_pps = 40_000.0;
    warmup_piats = 10;
  }

let cit_1e6_cfg = kernel_micro_cfg (Padding.Timer.Constant 1e-4)
let vit_1e6_cfg = kernel_micro_cfg (Padding.Timer.Exponential { mean = 1e-4 })

let run_1e6 cfg ~kernel =
  let was = Scenarios.Fastpath.enabled () in
  Scenarios.Fastpath.set_enabled kernel;
  Fun.protect
    ~finally:(fun () -> Scenarios.Fastpath.set_enabled was)
    (fun () ->
      ignore (Scenarios.System.run cfg ~piats:167_000 : Scenarios.System.result))

let micro_tests () =
  let open Bechamel in
  let rng = Prng.Rng.create ~seed:1 in
  let sample_1k =
    Array.init 1000 (fun _ -> Prng.Sampler.normal rng ~mu:0.01 ~sigma:3e-6)
  in
  let kde_points =
    Array.init 200 (fun _ -> Prng.Sampler.normal rng ~mu:0.0 ~sigma:1.0)
  in
  let kde = Stats.Kde.fit kde_points in
  let clf =
    Adversary.Classifier.train
      ~classes:
        [|
          ("lo", Array.init 100 (fun _ -> Prng.Sampler.normal rng ~mu:0.0 ~sigma:1.0));
          ("hi", Array.init 100 (fun _ -> Prng.Sampler.normal rng ~mu:2.0 ~sigma:1.0));
        |]
      ()
  in
  let entropy_kind =
    Adversary.Feature.Sample_entropy
      { bin_width = Adversary.Feature.default_entropy_bin_width }
  in
  [
    Test.make ~name:"event_queue.push_pop_1k"
      (Staged.stage (fun () ->
           let q = Desim.Event_queue.create () in
           for i = 0 to 999 do
             Desim.Event_queue.push q ~time:(float_of_int ((i * 7919) mod 1000)) ()
           done;
           while not (Desim.Event_queue.is_empty q) do
             ignore (Desim.Event_queue.pop q)
           done));
    (* Steady-state variant: reused queue, allocation-free pop primitives —
       the exact loop shape Sim.run_until uses. *)
    (let q = Desim.Event_queue.create () in
     Test.make ~name:"event_queue.reuse_pop_exn_1k"
       (Staged.stage (fun () ->
            Desim.Event_queue.clear q;
            for i = 0 to 999 do
              Desim.Event_queue.push q ~time:(float_of_int ((i * 7919) mod 1000)) ()
            done;
            while not (Desim.Event_queue.is_empty q) do
              ignore (Desim.Event_queue.min_time q : float);
              ignore (Desim.Event_queue.pop_exn q)
            done)));
    (* A periodic timer train on a recycled simulator: one Sim.every event
       record re-armed 1000 times. *)
    (let sim = Desim.Sim.create () in
     Test.make ~name:"sim.timer_train_1k"
       (Staged.stage (fun () ->
            Desim.Sim.reset sim;
            let n = ref 0 in
            let h =
              Desim.Sim.every sim ~interval:(fun () -> 0.001) (fun () -> incr n)
            in
            Desim.Sim.run_until sim ~time:1.0;
            Desim.Sim.cancel h;
            (* Accumulated fp drift can push the 1000th tick just past 1.0. *)
            assert (abs (!n - 1000) <= 1))));
    Test.make ~name:"kernel.cit_1e6"
      (Staged.stage (fun () -> run_1e6 cit_1e6_cfg ~kernel:true));
    Test.make ~name:"eventloop.cit_1e6"
      (Staged.stage (fun () -> run_1e6 cit_1e6_cfg ~kernel:false));
    Test.make ~name:"kernel.vit_1e6"
      (Staged.stage (fun () -> run_1e6 vit_1e6_cfg ~kernel:true));
    Test.make ~name:"eventloop.vit_1e6"
      (Staged.stage (fun () -> run_1e6 vit_1e6_cfg ~kernel:false));
    Test.make ~name:"system.run_tiny"
      (Staged.stage (fun () ->
           ignore
             (Scenarios.System.run
                { Scenarios.System.default_config with warmup_piats = 10 }
                ~piats:50
               : Scenarios.System.result)));
    Test.make ~name:"gateway.simulate_1s_padded"
      (Staged.stage (fun () ->
           let sim = Desim.Sim.create () in
           let rng = Prng.Rng.create ~seed:2 in
           let gw =
             Padding.Gateway.create sim ~rng:(Prng.Rng.split rng)
               ~timer:(Padding.Timer.Constant 0.01)
               ~jitter:(Padding.Jitter.mechanistic ())
               ~dest:(fun _ -> ())
               ()
           in
           let src =
             Netsim.Traffic_gen.poisson sim ~rng:(Prng.Rng.split rng)
               ~rate_pps:40.0 ~size_bytes:500 ~kind:Netsim.Packet.Payload
               ~dest:(Padding.Gateway.input gw) ()
           in
           Desim.Sim.run_until sim ~time:1.0;
           Netsim.Traffic_gen.stop src;
           Padding.Gateway.stop gw));
    Test.make ~name:"router.cross_1k_packets"
      (Staged.stage (fun () ->
           let sim = Desim.Sim.create () in
           let router =
             Netsim.Router.create sim ~bandwidth_bps:622e6 ~dest:(fun _ -> ()) ()
           in
           for _ = 0 to 999 do
             Netsim.Router.port router
               (Netsim.Packet.make ~kind:Netsim.Packet.Cross ~size_bytes:500
                  ~created:(Desim.Sim.now sim))
           done;
           Desim.Sim.run_until sim ~time:1.0));
    Test.make ~name:"stats.stream_mean_var_1k"
      (Staged.stage (fun () ->
           let m = Stats.Stream.Moments.create () in
           Array.iter (Stats.Stream.Moments.add m) sample_1k;
           ignore (Stats.Stream.Moments.mean m : float);
           ignore (Stats.Stream.Moments.variance m : float)));
    (* The figure runners' inner loop: slide a 100-sample window down 1000
       PIATs, reading the three features at every position. *)
    (let w =
       Stats.Stream.Window.create ~capacity:100
         ~bin_width:Adversary.Feature.default_entropy_bin_width
         ~reference:0.01 ()
     in
     Test.make ~name:"stats.window_slide_1k"
       (Staged.stage (fun () ->
            Stats.Stream.Window.clear w;
            Array.iter
              (fun x ->
                Stats.Stream.Window.push w x;
                if Stats.Stream.Window.is_full w then begin
                  ignore (Stats.Stream.Window.mean w : float);
                  ignore (Stats.Stream.Window.variance w : float);
                  ignore (Stats.Stream.Window.entropy w : float)
                end)
              sample_1k)));
    Test.make ~name:"feature.variance_n1000"
      (Staged.stage (fun () ->
           ignore
             (Adversary.Feature.extract Adversary.Feature.Sample_variance
                ~reference:0.01 sample_1k)));
    Test.make ~name:"feature.entropy_n1000"
      (Staged.stage (fun () ->
           ignore
             (Adversary.Feature.extract entropy_kind ~reference:0.01 sample_1k)));
    Test.make ~name:"kde.fit_200"
      (Staged.stage (fun () -> ignore (Stats.Kde.fit kde_points)));
    Test.make ~name:"kde.log_pdf_200pts"
      (Staged.stage (fun () -> ignore (Stats.Kde.log_pdf kde 0.3)));
    Test.make ~name:"classifier.classify"
      (Staged.stage (fun () -> ignore (Adversary.Classifier.classify clf 1.0)));
    Test.make ~name:"theorems.closed_forms"
      (Staged.stage (fun () ->
           ignore (Analytical.Theorems.v_mean ~r:1.8);
           ignore (Analytical.Theorems.v_variance ~r:1.8 ~n:1000);
           ignore (Analytical.Theorems.v_entropy ~r:1.8 ~n:1000)));
    Test.make ~name:"bayes.sample_variance_exact"
      (Staged.stage (fun () ->
           ignore
             (Analytical.Bayes_numeric.sample_variance_exact ~sigma2_l:1.0
                ~sigma2_h:1.9 ~n:1000)));
  ]

let run_micro_benchmarks () =
  let open Bechamel in
  Format.fprintf fmt "@.Micro-benchmarks (Bechamel, monotonic clock)@.";
  Format.fprintf fmt "%-32s  %14s  %10s@." "kernel" "ns/run" "r^2";
  Format.fprintf fmt "%s@." (String.make 62 '-');
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  List.concat_map
    (fun test ->
      List.map
        (fun elt ->
          let raw = Benchmark.run cfg [ Toolkit.Instance.monotonic_clock ] elt in
          let est = Analyze.one ols Toolkit.Instance.monotonic_clock raw in
          let ns =
            match Analyze.OLS.estimates est with
            | Some [ x ] -> x
            | Some (x :: _) -> x
            | _ -> Float.nan
          in
          let r2 = Option.value (Analyze.OLS.r_square est) ~default:Float.nan in
          Format.fprintf fmt "%-32s  %14.1f  %10.4f@." (Test.Elt.name elt) ns r2;
          (Test.Elt.name elt, ns, r2))
        (Test.elements test))
    (micro_tests ())

(* --- hand-rolled JSON (no dependency): one flat object per run --- *)

let json_float x =
  (* JSON has no NaN/inf literals; a failed OLS estimate becomes null. *)
  if Float.is_finite x then Printf.sprintf "%.6g" x else "null"

let add_spans buf =
  Buffer.add_string buf "  \"spans\": [";
  List.iteri
    (fun i (s : Obs.Span.stat) ->
      if i > 0 then Buffer.add_string buf ",";
      Buffer.add_string buf
        (Printf.sprintf
           "\n    {\"name\": \"%s\", \"count\": %d, \"total_s\": %s, \
            \"self_s\": %s}"
           (Obs.Json.escape s.Obs.Span.name)
           s.count (json_float s.total_s) (json_float s.self_s)))
    (Obs.Span.snapshot ());
  Buffer.add_string buf "\n  ],\n"

let add_metrics buf ~metrics =
  Buffer.add_string buf "  \"metrics\": {";
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_string buf ",";
      Buffer.add_string buf
        (Printf.sprintf "\n    \"%s\": " (Obs.Json.escape name));
      match v with
      | Obs.Metrics.Snapshot.Counter n ->
          Buffer.add_string buf (string_of_int n)
      | Obs.Metrics.Snapshot.Gauge g -> Buffer.add_string buf (json_float g)
      | Obs.Metrics.Snapshot.Histogram h ->
          Buffer.add_string buf
            (Printf.sprintf
               "{\"count\": %d, \"mean\": %s, \"p50\": %s, \"p90\": %s, \
                \"p99\": %s, \"max\": %s}"
               h.Obs.Metrics.Snapshot.count (json_float h.mean)
               (json_float h.p50) (json_float h.p90) (json_float h.p99)
               (json_float h.max)))
    metrics;
  Buffer.add_string buf "\n  },\n"

let add_tables buf =
  Buffer.add_string buf "  \"tables\": [";
  List.iteri
    (fun i (title, digest) ->
      if i > 0 then Buffer.add_string buf ",";
      Buffer.add_string buf
        (Printf.sprintf "\n    {\"title\": \"%s\", \"digest\": \"%s\"}"
           (Obs.Json.escape title) (Obs.Json.escape digest)))
    (Scenarios.Table.printed_digests ());
  Buffer.add_string buf "\n  ],\n"

let write_json path ~resolved_jobs ~total ~metrics ~micro =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  (* v3 = v2 plus the "tables" key (content digests of every printed
     table); v2 = v1 plus "spans" and "metrics".  Every earlier key keeps
     its meaning, so consumers only need to bump the accepted schema
     string. *)
  Buffer.add_string buf "  \"schema\": \"ta-bench/3\",\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"scale\": %s,\n" (json_float !scale));
  Buffer.add_string buf (Printf.sprintf "  \"seed\": %d,\n" !seed);
  Buffer.add_string buf (Printf.sprintf "  \"jobs\": %d,\n" resolved_jobs);
  Buffer.add_string buf
    (Printf.sprintf "  \"only\": \"%s\",\n" (Obs.Json.escape !only));
  Buffer.add_string buf
    (Printf.sprintf "  \"total_s\": %s,\n" (json_float total));
  Buffer.add_string buf "  \"stages\": [";
  List.iteri
    (fun i (id, dt) ->
      if i > 0 then Buffer.add_string buf ",";
      Buffer.add_string buf
        (Printf.sprintf "\n    {\"id\": \"%s\", \"wall_s\": %s}"
           (Obs.Json.escape id) (json_float dt)))
    (List.rev !stage_times);
  Buffer.add_string buf "\n  ],\n";
  add_spans buf;
  add_metrics buf ~metrics;
  add_tables buf;
  Buffer.add_string buf "  \"micro\": [";
  List.iteri
    (fun i (name, ns, r2) ->
      if i > 0 then Buffer.add_string buf ",";
      Buffer.add_string buf
        (Printf.sprintf
           "\n    {\"name\": \"%s\", \"ns_per_run\": %s, \"r_square\": %s}"
           (Obs.Json.escape name) (json_float ns) (json_float r2)))
    micro;
  Buffer.add_string buf "\n  ]\n}\n";
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Buffer.contents buf))

let () =
  Arg.parse args
    (fun anon -> raise (Arg.Bad ("unexpected argument: " ^ anon)))
    "bench/main.exe -- regenerate the paper's figures and micro-benchmarks";
  (* Catch bad numbers here rather than as an Invalid_argument (or a
     nonsense run) deep inside the simulator. *)
  if not (!scale > 0.0 && Float.is_finite !scale) then begin
    prerr_endline "bench: --scale must be a positive finite number";
    exit 2
  end;
  if !seed < 0 then begin
    prerr_endline "bench: --seed must be non-negative";
    exit 2
  end;
  (* A typo'd figure id used to run nothing and still exit 0; fail fast
     with the valid set instead. *)
  if !only <> "all" then begin
    let ids = String.split_on_char ',' !only in
    let bad = List.filter (fun id -> not (List.mem id known_figures)) ids in
    if ids = [] || bad <> [] then begin
      Printf.eprintf "bench: unknown figure id%s %s; valid ids: %s\n"
        (if List.length bad > 1 then "s" else "")
        (String.concat "," bad)
        (String.concat "," known_figures);
      exit 2
    end
  end;
  if !check_trace && !trace_path = "" then begin
    prerr_endline "bench: --check-trace requires --trace FILE";
    exit 2
  end;
  if !inject <> "" then begin
    match Scenarios.Sweep.parse_injection !inject with
    | Ok injections -> Scenarios.Sweep.set_injections injections
    | Error msg ->
        Printf.eprintf "bench: %s\n" msg;
        exit 2
  end;
  if !checkpoint <> "" then Scenarios.Sweep.set_checkpoint_dir (Some !checkpoint);
  if !retries >= 0 then Scenarios.Sweep.set_retries !retries;
  Scenarios.Sweep.set_strict !strict;
  if !event_budget > 0 then Scenarios.Sweep.set_event_budget (Some !event_budget);
  if !jobs > 0 then Exec.Pool.set_default_jobs !jobs;
  let resolved_jobs = Exec.Pool.default_jobs () in
  Format.fprintf fmt "[exec: %d worker domain%s]@." resolved_jobs
    (if resolved_jobs = 1 then "" else "s");
  if !trace_path <> "" then Obs.Trace.enable ~path:!trace_path;
  let t0 = Unix.gettimeofday () in
  (* Same contract as ta_lab: a starved tap is a diagnosed failure, not a
     backtrace — commit the partial trace, print the report, exit 3.
     Supervised sweeps contain these and exit 4 instead; this handler
     covers --strict and unsupervised code paths. *)
  (try run_figures () with
  | Scenarios.Starvation.Tap_starved _ as e ->
      Obs.Trace.flush ();
      Format.eprintf "bench: ";
      ignore (Scenarios.Starvation.pp_starved Format.err_formatter e : bool);
      exit 3
  | Desim.Sim.Event_budget_exceeded { max_events } ->
      Obs.Trace.flush ();
      Printf.eprintf "bench: simulation exceeded the --event-budget (%d events)\n"
        max_events;
      exit 3);
  Obs.Trace.flush ();
  (* Snapshot before the micro-benchmarks: their adaptive iteration counts
     run real simulations, and folding those into the counters would make
     the report's "metrics" section non-reproducible.  Snapshotted here it
     is a pure function of (scale, seed, --only) — the structural
     invariant tabench_diff --structural binds on. *)
  let metrics = Obs.Metrics.snapshot () in
  let micro =
    (if !run_micro then run_micro_benchmarks () else [])
    @ List.rev !fleet_micro
  in
  let total = Unix.gettimeofday () -. t0 in
  if !json_path <> "" then
    write_json !json_path ~resolved_jobs ~total ~metrics ~micro;
  Format.fprintf fmt "@.[bench total %.1f s, scale %.2f, seed %d, jobs %d]@."
    total !scale !seed resolved_jobs;
  (if !check_trace then
     match Obs.Trace.validate_file !trace_path with
     | Ok { Obs.Trace.events; runs } ->
         Format.fprintf fmt "[trace OK: %d events across %d runs]@." events runs
     | Error msg ->
         Printf.eprintf "bench: trace %s violates ta-trace/1: %s\n" !trace_path
           msg;
         exit 1);
  (* Partial results: the tables (with annotated rows), trace and JSON
     report are all on disk by now — record the ta-fail/1 manifest and
     exit 4 so CI can tell "complete" from "degraded". *)
  if Scenarios.Sweep.partial () then begin
    Format.pp_print_flush fmt ();
    let dir = if !checkpoint <> "" then !checkpoint else !csv_dir in
    if dir <> "" then begin
      let path = Filename.concat dir "failures.json" in
      Scenarios.Sweep.write_manifest ~path;
      Printf.eprintf "bench: failure manifest written to %s\n" path
    end;
    prerr_endline "bench: partial results:";
    Scenarios.Sweep.pp_failures Format.err_formatter;
    Format.pp_print_flush Format.err_formatter ();
    exit 4
  end
