(* Golden test for the ta-trace/1 JSONL sink plus cross-checks tying the
   Obs counters to the numbers the scenarios publish themselves.

   The golden run is a tiny fixed-seed Fig 4(b): with tracing enabled it
   must produce a file where every line parses against the ta-trace/1
   schema, where the tap events reconcile exactly with the tap counters,
   and whose bytes are identical at [--jobs 1] and [--jobs 2]. *)

let null_fmt = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())

let with_jobs jobs f =
  Exec.Pool.set_default_jobs jobs;
  Fun.protect ~finally:(fun () -> Exec.Pool.set_default_jobs 1) f

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let contains haystack needle =
  let h = String.length haystack and n = String.length needle in
  let rec at i = i + n <= h && (String.sub haystack i n = needle || at (i + 1)) in
  n = 0 || at 0

(* The golden run must start from a clean slate: stale metrics would
   break the event/counter reconciliation. *)
let fresh_state () =
  Obs.Metrics.reset ();
  Obs.Span.reset ()

let traced_fig4b ~jobs path =
  fresh_state ();
  with_jobs jobs (fun () ->
      Obs.Trace.enable ~path;
      Fun.protect
        ~finally:(fun () -> Obs.Trace.disable ())
        (fun () ->
          ignore
            (Scenarios.Fig4b.run ~scale:0.05 ~seed:7 ~sample_sizes:[ 10; 20 ]
               null_fmt
              : Scenarios.Fig4b.t);
          Obs.Trace.flush ()));
  Obs.Metrics.snapshot ()

let parse_line line =
  match Obs.Json.of_string line with
  | Ok v -> v
  | Error e -> Alcotest.failf "unparseable trace line %S: %s" line e

let test_trace_golden () =
  let path1 = Filename.temp_file "ta_trace_j1" ".jsonl" in
  let path2 = Filename.temp_file "ta_trace_j2" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove path1;
      Sys.remove path2)
    (fun () ->
      let snap = traced_fig4b ~jobs:1 path1 in
      ignore (traced_fig4b ~jobs:2 path2 : Obs.Metrics.Snapshot.t);
      (* Byte identity across worker counts. *)
      Alcotest.(check bool)
        "trace bytes identical at --jobs 1 and --jobs 2" true
        (read_file path1 = read_file path2);
      (* The sink's own validator accepts the file. *)
      (match Obs.Trace.validate_file path1 with
      | Ok { events; runs } ->
          Alcotest.(check bool) "trace has events" true (events > 0);
          (* One simulated run per payload-rate class. *)
          Alcotest.(check int) "one run per class" 2 runs
      | Error e -> Alcotest.failf "validate_file rejected golden trace: %s" e);
      (* Independent per-line check of the schema, not trusting the
         validator: header first, then run/t/ev typed on every event. *)
      let lines =
        String.split_on_char '\n' (read_file path1)
        |> List.filter (fun l -> l <> "")
      in
      (match lines with
      | header :: _ ->
          (match parse_line header with
          | Obs.Json.Obj [ ("schema", Obs.Json.Str "ta-trace/1") ] -> ()
          | _ -> Alcotest.failf "bad header line %S" header)
      | [] -> Alcotest.fail "empty trace file");
      let payload_evs = ref 0 and dummy_evs = ref 0 and tap_evs = ref 0 in
      List.iteri
        (fun i line ->
          if i > 0 then begin
            let v = parse_line line in
            (match Obs.Json.member "run" v with
            | Some (Obs.Json.Str _) -> ()
            | _ -> Alcotest.failf "line %d: missing/untyped \"run\"" i);
            (match Obs.Json.member "t" v with
            | Some (Obs.Json.Num t) when Float.is_finite t && t >= 0.0 -> ()
            | _ -> Alcotest.failf "line %d: bad \"t\"" i);
            match Obs.Json.member "ev" v with
            | Some (Obs.Json.Str ev) ->
                if not (List.mem ev Obs.Trace.known_events) then
                  Alcotest.failf "line %d: unknown event %S" i ev;
                if ev = "tap.observe" then begin
                  incr tap_evs;
                  match Obs.Json.member "kind" v with
                  | Some (Obs.Json.Str "payload") -> incr payload_evs
                  | Some (Obs.Json.Str "dummy") -> incr dummy_evs
                  | _ -> Alcotest.failf "line %d: tap.observe without kind" i
                end
            | _ -> Alcotest.failf "line %d: missing/untyped \"ev\"" i
          end)
        lines;
      (* Reconcile events against the counters from the same run: every
         tap observation emitted exactly one event, so dummy + payload
         event counts equal the tap packet counters. *)
      let c name = Obs.Metrics.Snapshot.counter_value snap name in
      Alcotest.(check int)
        "tap.observe events == netsim.tap.observed"
        (c "netsim.tap.observed") !tap_evs;
      Alcotest.(check int)
        "payload events == netsim.tap.payload"
        (c "netsim.tap.payload") !payload_evs;
      Alcotest.(check int)
        "dummy events == netsim.tap.dummy"
        (c "netsim.tap.dummy") !dummy_evs;
      Alcotest.(check int)
        "payload + dummy == observed"
        !tap_evs (!payload_evs + !dummy_evs))

(* Cross-check: the Obs gateway counters must reproduce the overhead the
   scenario reports (same increment sites), and both must sit close to
   the analytic 1 - rho of Padding.Qos. *)
let test_counters_vs_system_overhead () =
  fresh_state ();
  let cfg = Scenarios.System.default_config in
  let res = Scenarios.System.run cfg ~piats:800 in
  let snap = Obs.Metrics.snapshot () in
  let payload =
    Obs.Metrics.Snapshot.counter_value snap "padding.gateway.payload_sent"
  in
  let dummy =
    Obs.Metrics.Snapshot.counter_value snap "padding.gateway.dummy_sent"
  in
  Alcotest.(check bool) "gateway sent packets" true (payload + dummy > 0);
  let counter_overhead =
    float_of_int dummy /. float_of_int (payload + dummy)
  in
  Alcotest.(check (float 1e-12))
    "counter-derived overhead == scenario overhead" res.overhead
    counter_overhead;
  let timer_mean = Padding.Timer.mean cfg.timer in
  let analytic =
    Padding.Qos.overhead ~payload_rate_pps:cfg.payload_rate_pps ~timer_mean
  in
  Alcotest.(check bool)
    (Printf.sprintf "counter overhead %.4f within 0.03 of analytic %.4f"
       counter_overhead analytic)
    true
    (Float.abs (counter_overhead -. analytic) <= 0.03);
  (* The tap sits right at the gateway output: it can only miss packets
     still in flight when the run stops. *)
  let observed = Obs.Metrics.Snapshot.counter_value snap "netsim.tap.observed" in
  Alcotest.(check bool)
    "tap observed at most what the gateway sent" true
    (observed <= payload + dummy);
  Alcotest.(check bool)
    (Printf.sprintf "in-flight gap small (sent %d, observed %d)"
       (payload + dummy) observed)
    true
    (payload + dummy - observed <= 64)

(* Cross-check: the tap counters account for every PIAT the adversary
   scores — Detection.result's per-class sample counts derive from the
   same packet stream the Obs layer counted. *)
let test_counters_vs_detection_counts () =
  fresh_state ();
  let cfg = Scenarios.System.default_config in
  let low = Scenarios.System.run { cfg with payload_rate_pps = 5.0 } ~piats:400 in
  let high =
    Scenarios.System.run
      { cfg with payload_rate_pps = 15.0; seed = cfg.seed + 1 }
      ~piats:400
  in
  let snap = Obs.Metrics.snapshot () in
  let observed = Obs.Metrics.Snapshot.counter_value snap "netsim.tap.observed" in
  (* Each run observes warmup + piats + 1 packets to yield piats
     inter-arrival gaps past the warm-up; the counter covers both runs. *)
  let piats_total = Array.length low.piats + Array.length high.piats in
  Alcotest.(check bool)
    (Printf.sprintf "tap counter %d covers the %d scored PIATs" observed
       piats_total)
    true
    (observed >= piats_total + (2 * cfg.warmup_piats));
  let sample_size = 40 in
  let r =
    Adversary.Detection.estimate ~feature:Adversary.Feature.Sample_variance
      ~reference:(Padding.Timer.mean cfg.timer) ~sample_size
      ~classes:[| ("low", low.piats); ("high", high.piats) |]
      ()
  in
  Array.iteri
    (fun i trace ->
      let windows = Array.length trace / sample_size in
      Alcotest.(check int)
        (Printf.sprintf "class %d: train + test halves cover every window" i)
        windows
        (r.Adversary.Detection.n_train_per_class.(i)
        + r.Adversary.Detection.n_test_per_class.(i)))
    [| low.piats; high.piats |]

(* Satellite bugfix lock-down: a blacked-out channel raises Tap_starved
   (carrying the metrics snapshot) instead of a bare failwith. *)
let test_tap_starved_exception () =
  fresh_state ();
  let cfg =
    {
      Scenarios.Degradation.default_config with
      seed = 5;
      profile = Scenarios.Degradation.profile_of_intensity 1.0;
    }
  in
  match Scenarios.Degradation.run_faulty cfg ~piats:200 with
  | (_ : Scenarios.Degradation.run_result) ->
      Alcotest.fail "blackout run should starve the tap"
  | exception
      Scenarios.Starvation.Tap_starved { scenario; target; observed; metrics; _ }
    ->
      Alcotest.(check string) "scenario label" "degradation.run" scenario;
      Alcotest.(check bool) "observed short of target" true (observed < target);
      Alcotest.(check bool)
        "snapshot shows the gateway was alive" true
        (Obs.Metrics.Snapshot.counter_value metrics "padding.gateway.fires" > 0);
      (* The report printer accepts the exception... *)
      let buf = Buffer.create 256 in
      let ppf = Format.formatter_of_buffer buf in
      Alcotest.(check bool)
        "pp_starved handles Tap_starved" true
        (Scenarios.Starvation.pp_starved ppf
           (Scenarios.Starvation.Tap_starved
              { scenario; target; observed; sim_time = 0.0; metrics }));
      Format.pp_print_flush ppf ();
      Alcotest.(check bool)
        "report names the starved scenario" true
        (contains (Buffer.contents buf) "tap starved in degradation.run");
      (* ... and rejects anything else. *)
      Alcotest.(check bool)
        "pp_starved ignores other exceptions" false
        (Scenarios.Starvation.pp_starved ppf Not_found)

(* End-to-end CLI behaviour of the same failure.  Under the supervised
   default the starved point becomes an annotated partial result (exit
   4); --strict restores the historical abort with the starvation report
   (exit 3).  Neither path may leak a raw backtrace. *)
let test_cli_starvation_exit () =
  (* cwd is _build/default/test under [dune runtest] but the project root
     under [dune exec test/test_main.exe]; accept either. *)
  let candidates = [ "../bin/ta_lab.exe"; "_build/default/bin/ta_lab.exe" ] in
  match List.find_opt Sys.file_exists candidates with
  | None -> Alcotest.skip ()
  | Some exe ->
      let out = Filename.temp_file "ta_lab_starved" ".txt" in
      Fun.protect
        ~finally:(fun () -> Sys.remove out)
        (fun () ->
          let code =
            Sys.command
              (Printf.sprintf "%s faults --scale 0.05 --intensities 1 >%s 2>&1"
                 (Filename.quote exe) (Filename.quote out))
          in
          Alcotest.(check int) "starved run exits 4 (partial results)" 4 code;
          let report = read_file out in
          Alcotest.(check bool)
            "output explains the starvation" true
            (contains report "tap starved");
          Alcotest.(check bool)
            "partial-results notice on stderr" true
            (contains report "partial results");
          Alcotest.(check bool)
            "no raw backtrace" false
            (contains report "Raised at" || contains report "Fatal error");
          let code_strict =
            Sys.command
              (Printf.sprintf
                 "%s faults --scale 0.05 --intensities 1 --strict >%s 2>&1"
                 (Filename.quote exe) (Filename.quote out))
          in
          Alcotest.(check int) "--strict keeps the exit-3 contract" 3
            code_strict;
          let report = read_file out in
          Alcotest.(check bool)
            "strict stderr explains the starvation" true
            (contains report "tap starved");
          Alcotest.(check bool)
            "metrics snapshot included" true
            (contains report "padding.gateway.fires");
          Alcotest.(check bool)
            "strict: no raw backtrace" false
            (contains report "Raised at" || contains report "Fatal error"))

(* The adaptive scheme is a period policy on the one sender gateway, so
   its runs account and trace like every other gateway run. *)
let adaptive_run () =
  ignore
    (Scenarios.System.run_adaptive Scenarios.System.default_config ~piats:300
      : Scenarios.System.result);
  Obs.Metrics.snapshot ()

let test_adaptive_trace_per_fire () =
  let path = Filename.temp_file "ta_trace_adaptive" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      fresh_state ();
      Obs.Trace.enable ~path;
      let snap =
        Fun.protect
          ~finally:(fun () -> Obs.Trace.disable ())
          (fun () ->
            let snap = adaptive_run () in
            Obs.Trace.flush ();
            snap)
      in
      let fires =
        Obs.Metrics.Snapshot.counter_value snap "padding.gateway.fires"
      in
      let evs =
        String.split_on_char '\n' (read_file path)
        |> List.filter (fun l -> l <> "")
        |> List.map (fun l -> Obs.Json.member "ev" (parse_line l))
      in
      let count ev =
        List.length (List.filter (( = ) (Some (Obs.Json.Str ev))) evs)
      in
      let observed = count "tap.observe" in
      Alcotest.(check bool) "the tap saw the run" true (observed > 0);
      Alcotest.(check bool) "a packet.sent for every packet the tap saw" true
        (count "packet.sent" >= observed);
      Alcotest.(check int) "one timer.fire per fire" fires (count "timer.fire");
      Alcotest.(check int) "one packet.sent per fire" fires
        (count "packet.sent"))

let test_adaptive_gateway_metrics () =
  fresh_state ();
  let snap = adaptive_run () in
  let c = Obs.Metrics.Snapshot.counter_value snap in
  let fires = c "padding.gateway.fires" in
  Alcotest.(check bool) "fires reach padding.gateway.fires" true (fires > 0);
  Alcotest.(check int) "fires = payload_sent + dummy_sent" fires
    (c "padding.gateway.payload_sent" + c "padding.gateway.dummy_sent")

let suite =
  [
    Alcotest.test_case "fig4b trace: schema + jobs byte-identity" `Quick
      test_trace_golden;
    Alcotest.test_case "counters reconcile with system overhead" `Quick
      test_counters_vs_system_overhead;
    Alcotest.test_case "counters reconcile with detection counts" `Quick
      test_counters_vs_detection_counts;
    Alcotest.test_case "blackout raises Tap_starved with snapshot" `Quick
      test_tap_starved_exception;
    Alcotest.test_case "ta_lab starvation: exit 4 contained, 3 strict" `Quick
      test_cli_starvation_exit;
    Alcotest.test_case "adaptive trace: timer.fire and packet.sent per fire"
      `Quick test_adaptive_trace_per_fire;
    Alcotest.test_case "adaptive fires count in padding.gateway.*" `Quick
      test_adaptive_gateway_metrics;
  ]
