(* perfbench — the repository benchmark.

     python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

   Generates the named workload's sweep configs from the seed, sets up
   (config generation, arena warm-up, calibration) several times, then
   runs whole sweep passes for S seconds and checks every output.  The
   last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"} with the end-to-end
   metrics (--trace 0) or the per-layer metrics of a traced run
   (--trace 1).  Any failed output check exits 1 after printing it.
   See perfbench/README.md for the workloads and the metric table. *)

open Scenarios

let default_seed = 1

(* Result digests at the default seed, recorded when the benchmark was
   defined.  A change that alters any simulated or scored value changes
   the digest; such a change must re-record it here and say why. *)
let expected_digests =
  [
    (* MD5 of the wan_day, vit_design and small_samples part digests *)
    ("kernel_path", "c453fc7c53c4386707373dbce7a362e1");
    ("event_loop", "38a1621c10e71fb88a50376ef677907c");
  ]

(* Set-up runs once before the passes and once more after every untraced
   pass, at least [min_setup_rounds] times in all; setup_s is the median
   round.  Spread over the run, the rounds meet the same changes in host
   speed as the passes; rounds run back to back would all land in one
   second of it. *)
let rss_passes = 5
let min_setup_rounds = 5

let end_to_end =
  [
    ("wall_s", "s");
    ("cpu_s", "s");
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
    ("ok_frac", "frac");
  ]

let per_layer =
  [
    ("system.run.calls", "count");
    ("system.run.busy_s", "s");
    ("system.run.ns_per_piat", "ns");
    ("system.run.words_per_piat", "words");
    ("system.run.kernel_frac", "frac");
    ("system.run.fallbacks", "count");
    ("padding.kernel.busy_s", "s");
    ("padding.kernel.ns_per_fire", "ns");
    ("padding.gateway.fires", "count");
    ("netsim.linkstage.busy_s", "s");
    ("netsim.linkstage.ns_per_packet", "ns");
    ("netsim.link.enqueued", "count");
    ("netsim.cross_per_piat", "pkt/piat");
    ("prng.ns_per_draw", "ns");
    ("prng.words_per_draw", "words");
    ("prng.fill_ns_per_draw", "ns");
    ("prng.fill_words_per_draw", "words");
    ("desim.events", "count");
    ("desim.ns_per_event", "ns");
    ("faults.run_faulty.busy_s", "s");
    ("faults.injected", "count");
    ("adversary.features.busy_s", "s");
    ("adversary.features.windows", "count");
    ("adversary.detect.busy_s", "s");
    ("adversary.detect.kernel_evals", "count");
    ("adversary.detect.ns_per_eval", "ns");
    ("stats.moments.busy_s", "s");
    ("exec.pool.fanouts", "count");
    ("exec.pool.domains_spawned", "count");
    ("exec.pool.idle_s", "s");
    ("exec.pool.self_s", "s");
    ("sweep.points", "count");
    ("sweep.self_s", "s");
    ("replay.runs", "count");
    ("gc.major_collections", "count");
    ("trace.wall_s", "s");
    ("trace.remainder_s", "s");
    ("trace.overlap_s", "s");
    ("trace.overhead_frac", "frac");
  ]

(* -- command line ------------------------------------------------------------ *)

let names = List.map (fun (w : Workloads.t) -> w.Workloads.name) Workloads.all

let usage =
  Printf.sprintf
    "perfbench --workload {%s} [--seed N] [--seconds S] [--trace 0|1]"
    (String.concat "|" names)

let bad fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("perfbench: " ^ msg);
      prerr_endline usage;
      exit 2)
    fmt

type args = { workload : Workloads.t; seed : int; seconds : float; trace : bool }

let parse_args () =
  let workload = ref "" and seed = ref default_seed in
  let seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_int seconds, "S measuring time (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> bad "unexpected argument %s" a)
    usage;
  let workload =
    match List.find_opt (fun (w : Workloads.t) -> w.Workloads.name = !workload) Workloads.all with
    | Some w -> w
    | None -> bad "unknown workload %S" !workload
  in
  if !seed < 0 then bad "--seed must be >= 0";
  if !seconds < 1 then bad "--seconds must be >= 1";
  if !trace <> 0 && !trace <> 1 then bad "--trace must be 0 or 1";
  { workload; seed = !seed; seconds = float_of_int !seconds; trace = !trace = 1 }

(* -- passes ------------------------------------------------------------------ *)

(* Obs counter deltas that are a function of the seed alone; exec.*
   counters depend on scheduling. *)
let work_counts counts =
  List.filter (fun (name, _) -> not (String.starts_with ~prefix:"exec." name)) counts

type timed = {
  outcome : Workloads.outcome;
  wall : float;
  cpu : float;
  counts : (string * int) list;  (** all Obs counter deltas of the pass *)
  rss : float;  (** peak resident set during the pass, MB *)
}

let timed_pass run =
  Measure.reset_peak_rss ();
  let c0 = Recorder.counter_totals () in
  let w0 = Measure.now () and u0 = Measure.cpu () in
  let outcome = run () in
  let wall = Measure.now () -. w0 and cpu = Measure.cpu () -. u0 in
  let counts = Recorder.deltas c0 (Recorder.counter_totals ()) in
  if Sweep.partial () then Format.eprintf "perfbench: failed points:@.%t%!" Sweep.pp_failures;
  Sweep.clear_failures ();
  { outcome; wall; cpu; counts; rss = Measure.peak_rss_mb () }

(* Whole passes, each followed by [between], until [budget] seconds are
   spent: a pass starts only if the previous one suggests it will finish
   in time; at least one runs. *)
let passes ~budget ?(between = ignore) run =
  let start = Measure.now () in
  let rec go acc =
    let t = timed_pass run in
    between ();
    let acc = t :: acc in
    if Measure.now () -. start +. t.wall > budget then List.rev acc else go acc
  in
  go []

let consistency ~what (ts : timed list) =
  match ts with
  | [] -> []
  | first :: rest ->
      let wc t = work_counts t.counts in
      List.concat_map
        (fun t ->
          Workloads.check
            (String.equal t.outcome.Workloads.digest first.outcome.Workloads.digest)
            "%s: result digest changed between passes" what
          @ Workloads.check (wc t = wc first) "%s: work counts changed between passes" what)
        rest

(* -- per-layer metrics of one traced pass ---------------------------------- *)

(* The per-layer metric each traced span's self time adds to. *)
let layer_of_span =
  [
    ("pass", "trace.remainder_s");
    ("sweep", "sweep.self_s");
    ("sweep.prepare", "sweep.self_s");
    ("sweep.point", "sweep.self_s");
    ("exec.fanout", "exec.pool.self_s");
    ("system.run", "system.run.busy_s");
    ("faults.run_faulty", "faults.run_faulty.busy_s");
    ("adversary.features", "adversary.features.busy_s");
    ("adversary.detect", "adversary.detect.busy_s");
    ("stats.moments", "stats.moments.busy_s");
  ]

let self_layers = List.sort_uniq compare (List.map snd layer_of_span)

let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0.0 xs
let isum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs
let named n spans = List.filter (fun (s : Recorder.span) -> s.Recorder.name = n) spans
let ratio a b = if b = 0.0 then 0.0 else a /. b
let count_of counts name = Option.value (List.assoc_opt name counts) ~default:0

let count_prefix counts prefix =
  isum snd (List.filter (fun (k, _) -> String.starts_with ~prefix k) counts)

(* Exact cross-traffic enqueues of replayed kernel calls, by call id. *)
type replay_totals = {
  cross_by_call : (int, int) Hashtbl.t;
  runs : int;
  kernel_s : float;
  fires : int;
  linkstage_s : float;
  enqueued : int;
}

let traced_layers ~(pass : timed) ~majors ~spans ~(replay : replay_totals) =
  let selfs, overlap = Recorder.self_times spans in
  let self_of layer =
    sum snd
      (List.filter
         (fun ((s : Recorder.span), _) ->
           List.assoc s.Recorder.name layer_of_span = layer)
         selfs)
  in
  let wall =
    match named "pass" spans with
    | [ root ] -> Recorder.duration root
    | _ -> failwith "perfbench: traced pass without a single root span"
  in
  let runs = named "system.run" spans in
  let run_busy = sum Recorder.duration runs in
  let piats = float_of_int (isum (fun s -> Recorder.meta s "piats") runs) in
  let event_loop_runs =
    List.filter (fun s -> Recorder.count s "desim.kernel.runs" = 0) runs
    @ named "faults.run_faulty" spans
  in
  let events = isum (fun s -> Recorder.count s "desim.events_processed") event_loop_runs in
  let cross =
    isum
      (fun s ->
        match Hashtbl.find_opt replay.cross_by_call (Recorder.meta s "call") with
        | Some c -> c
        | None ->
            (* Event-loop call: every gateway emission is enqueued once per
               hop (exact for the single-hop chains run here). *)
            Recorder.count s "netsim.link.enqueued"
            - Recorder.meta s "hops"
              * (Recorder.count s "padding.gateway.payload_sent"
                + Recorder.count s "padding.gateway.dummy_sent"))
      runs
  in
  let features = named "adversary.features" spans in
  let detects = named "adversary.detect" spans in
  let detect_busy = sum Recorder.duration detects in
  let evals = isum (fun s -> Recorder.meta s "kernel_evals") detects in
  let children id = List.filter (fun (s : Recorder.span) -> s.Recorder.parent = id) spans in
  (* Idle worker time of each fan-out: workers x span minus task time. *)
  let fanout_idle =
    sum
      (fun (f : Recorder.span) ->
        let workers = 1 + Recorder.count f "exec.pool.domains_spawned" in
        (float_of_int workers *. Recorder.duration f)
        -. sum Recorder.duration (children f.Recorder.id))
      (named "exec.fanout" spans)
  in
  let sweep_idle =
    sum
      (fun (sw : Recorder.span) ->
        let kids = children sw.Recorder.id in
        let points = List.filter (fun (s : Recorder.span) -> s.Recorder.name = "sweep.point") kids in
        let fan_start =
          List.fold_left
            (fun t (s : Recorder.span) ->
              if s.Recorder.name = "sweep.prepare" then s.Recorder.stop else t)
            sw.Recorder.start kids
        in
        let workers = Stdlib.min (Recorder.meta sw "jobs") (List.length points) in
        (float_of_int workers *. (sw.Recorder.stop -. fan_start))
        -. sum Recorder.duration points)
      (named "sweep" spans)
  in
  let c = pass.counts in
  let fi = float_of_int in
  let self_metrics = List.map (fun l -> (l, self_of l)) self_layers in
  self_metrics
  @ [
      ("system.run.calls", fi (List.length runs));
      ("system.run.ns_per_piat", ratio (run_busy *. 1e9) piats);
      ("system.run.words_per_piat", ratio (sum (fun s -> s.Recorder.words) runs) piats);
      ("system.run.kernel_frac", ratio (fi (count_of c "desim.kernel.runs")) (fi (List.length runs)));
      ("system.run.fallbacks", fi (count_prefix c "desim.kernel.fallbacks"));
      ("padding.kernel.busy_s", replay.kernel_s);
      ("padding.kernel.ns_per_fire", ratio (replay.kernel_s *. 1e9) (fi replay.fires));
      ("padding.gateway.fires", fi (count_of c "padding.gateway.fires"));
      ("netsim.linkstage.busy_s", replay.linkstage_s);
      ("netsim.linkstage.ns_per_packet", ratio (replay.linkstage_s *. 1e9) (fi replay.enqueued));
      ("netsim.link.enqueued", fi (count_of c "netsim.link.enqueued"));
      ("netsim.cross_per_piat", ratio (fi cross) piats);
      ("desim.events", fi events);
      ("desim.ns_per_event", ratio (sum Recorder.duration event_loop_runs *. 1e9) (fi events));
      ("faults.injected", fi (count_prefix c "faults."));
      ("adversary.features.windows", fi (isum (fun s -> Recorder.meta s "windows") features));
      ("adversary.detect.kernel_evals", fi evals);
      ("adversary.detect.ns_per_eval", ratio (detect_busy *. 1e9) (fi evals));
      ("exec.pool.fanouts", fi (count_of c "exec.pool.fanouts"));
      ("exec.pool.domains_spawned", fi (count_of c "exec.pool.domains_spawned"));
      ("exec.pool.idle_s", fanout_idle +. sweep_idle);
      ("sweep.points", fi (List.length (named "sweep.point" spans)));
      ("replay.runs", fi replay.runs);
      ("gc.major_collections", fi majors);
      ("trace.wall_s", wall);
      ("trace.overlap_s", overlap);
    ]

(* The accounting identity the breakdown rests on. *)
let reconcile metrics =
  let get k = List.assoc k metrics in
  let selfs = sum (fun l -> get l) self_layers in
  let wall = get "trace.wall_s" in
  let gap = selfs -. get "trace.overlap_s" -. wall in
  Workloads.check
    (Float.abs gap <= 1e-6 *. Float.max wall 1e-3)
    "layer self times (%.6f s) minus overlap (%.6f s) differ from wall time (%.6f s)"
    selfs (get "trace.overlap_s") wall

(* -- kernel-stage replay ----------------------------------------------------- *)

let replay_all ~(pass : timed) calls =
  let cross_by_call = Hashtbl.create 64 in
  let problems = ref [] and ties = ref 0 in
  let fires = ref 0 and enqueued = ref 0 in
  let kernel_s = ref 0.0 and linkstage_s = ref 0.0 in
  List.iter
    (fun (call, (cfg : System.config), piats, expected) ->
      let outcome =
        Recorder.span "replay.run"
          ~meta:[ ("call", call) ]
          ~after:(function
            | Replay.Tie -> [ ("tie", 1) ]
            | Replay.Replayed (_, st) ->
                [
                  ("advances", st.Replay.advances);
                  ("kernel_ns", int_of_float (st.Replay.kernel_s *. 1e9));
                  ("linkstage_ns", int_of_float (st.Replay.linkstage_s *. 1e9));
                ])
          (fun () -> Replay.run cfg ~piats)
      in
      match outcome with
      | Replay.Tie -> incr ties
      | Replay.Replayed (timestamps, st) ->
          Hashtbl.replace cross_by_call call st.Replay.cross;
          fires := !fires + st.Replay.fires;
          enqueued := !enqueued + st.Replay.enqueued;
          kernel_s := !kernel_s +. st.Replay.kernel_s;
          linkstage_s := !linkstage_s +. st.Replay.linkstage_s;
          if not (Replay.bit_equal timestamps expected) then
            problems :=
              Printf.sprintf "kernel-stage replay differs from System.run (seed=%d)"
                cfg.System.seed
              :: !problems)
    calls;
  let spans = Recorder.take () in
  let tie_fallbacks = count_of pass.counts "desim.kernel.fallbacks{reason=tie}" in
  let problems =
    List.rev !problems
    @ Workloads.check (!ties = tie_fallbacks)
        "kernel-stage replay hit %d ties, System.run fell back on %d" !ties tie_fallbacks
  in
  ( {
      cross_by_call;
      runs = List.length calls - !ties;
      kernel_s = !kernel_s;
      fires = !fires;
      linkstage_s = !linkstage_s;
      enqueued = !enqueued;
    },
    spans,
    problems )

(* -- PRNG draw cost, timed on the public samplers ---------------------------- *)

let prng_micro ~seed =
  let rng = Prng.Rng.create ~seed in
  let draws = 1 lsl 20 in
  let block = 256 in
  let buf = Float.Array.make block 0.0 in
  let time f =
    let w0 = Gc.minor_words () and t0 = Measure.now () in
    f ();
    let dt = Measure.now () -. t0 and words = Gc.minor_words () -. w0 in
    (dt *. 1e9 /. float_of_int draws, words /. float_of_int draws)
  in
  let scalar () =
    let acc = ref 0.0 in
    for _ = 1 to draws do
      acc := !acc +. Prng.Sampler.exponential rng ~rate:100.0
    done;
    ignore (Sys.opaque_identity !acc)
  in
  let fill () =
    for _ = 1 to draws / block do
      Prng.Sampler.exponential_fill rng ~rate:100.0 buf ~n:block
    done;
    ignore (Sys.opaque_identity buf)
  in
  let med f =
    let runs = List.init 5 (fun _ -> time f) in
    (Measure.median (List.map fst runs), Measure.median (List.map snd runs))
  in
  let ns, words = med scalar and fns, fwords = med fill in
  [
    ("prng.ns_per_draw", ns);
    ("prng.words_per_draw", words);
    ("prng.fill_ns_per_draw", fns);
    ("prng.fill_words_per_draw", fwords);
  ]

(* -- output ------------------------------------------------------------------ *)

let json_number v = if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed ~table values =
  let metrics =
    List.map
      (fun (name, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
          (json_number (List.assoc name values))
          unit)
      table
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " metrics)

let summary ~table values =
  List.iter
    (fun (name, unit) ->
      Printf.eprintf "  %-32s %14.6g %s\n" name (List.assoc name values) unit)
    table

let median_of key rows = Measure.median (List.map (fun r -> List.assoc key r) rows)

(* -- main -------------------------------------------------------------------- *)

let () =
  let a = parse_args () in
  let w = a.workload in
  Exec.Pool.set_default_jobs w.Workloads.jobs;
  (* Set-up rounds as (config fingerprint, seconds); the first is timed
     from process start and its workload runs the passes. *)
  let p = w.Workloads.setup ~seed:a.seed in
  let rounds = ref [ (p.Workloads.fingerprint, Measure.now () -. Measure.process_start) ] in
  let set_up_again () =
    let t0 = Measure.now () in
    let q = w.Workloads.setup ~seed:a.seed in
    rounds := (q.Workloads.fingerprint, Measure.now () -. t0) :: !rounds
  in
  let problems = ref [] in
  let add ps = problems := !problems @ ps in
  let check_digest (o : Workloads.outcome) =
    Printf.eprintf "perfbench: %s seed %d result digest %s\n%!" w.Workloads.name a.seed
      o.Workloads.digest;
    if a.seed = default_seed then
      let d = List.assoc w.Workloads.name expected_digests in
      add
        (Workloads.check (String.equal d o.Workloads.digest)
           "default-seed digest %s differs from the recorded %s" o.Workloads.digest d)
  in
  let untraced =
    passes
      ~budget:(if a.trace then a.seconds /. 2.0 else a.seconds)
      ~between:set_up_again p.Workloads.pass
  in
  while List.length !rounds < min_setup_rounds do
    set_up_again ()
  done;
  let setup_s = Measure.median (List.map snd !rounds) in
  add
    (Workloads.check
       (List.for_all (fun (f, _) -> String.equal f p.Workloads.fingerprint) !rounds)
       "config generation is not deterministic in the seed");
  let first = List.hd untraced in
  (* Passes repeat exactly (checked next), so the first one's checks
     stand for all. *)
  add first.outcome.Workloads.violations;
  add (consistency ~what:"untraced" untraced);
  add (p.Workloads.crosscheck ());
  (* Median peak of the first few passes: a fixed amount of work, so the
     figure does not depend on how many passes fit in the run. *)
  let peak_rss_mb =
    Measure.median (List.filteri (fun i _ -> i < rss_passes) (List.map (fun t -> t.rss) untraced))
  in
  check_digest first.outcome;
  let attempted = isum (fun t -> t.outcome.Workloads.attempted) untraced in
  let failed = isum (fun t -> t.outcome.Workloads.failed) untraced in
  let values, table, attempted, failed =
    if not a.trace then begin
      (* Pass times are averaged.  On a shared host the passes run fast
         or slow in stretches of seconds to minutes; the mean moves in
         proportion to the share of the run each stretch covers, where a
         median or any other quantile jumps when that share crosses its
         rank. *)
      let values =
        [
          ("wall_s", Measure.mean (List.map (fun t -> t.wall) untraced));
          ("cpu_s", Measure.mean (List.map (fun t -> t.cpu) untraced));
          ("setup_s", setup_s);
          ("peak_rss_mb", peak_rss_mb);
          ("ok_frac", float_of_int (attempted - failed) /. float_of_int attempted);
        ]
      in
      Printf.eprintf
        "perfbench: %s seed %d, jobs %d, failed_frac %g, %d set-up rounds, %d passes (wall s/cpu s/rss MB):%s\n"
        w.Workloads.name a.seed w.Workloads.jobs
        (float_of_int failed /. float_of_int attempted)
        (List.length !rounds) (List.length untraced)
        (String.concat "" (List.map (fun t -> Printf.sprintf " %.3f/%.3f/%.1f" t.wall t.cpu t.rss) untraced));
      (values, end_to_end, attempted, failed)
    end
    else begin
      (* Traced passes, one root span each.  The first pass's kernel-path
         calls feed the replay; its spans go to the span file. *)
      let start = Measure.now () in
      let rec loop acc =
        ignore (Recorder.take ());
        let m0 = (Gc.quick_stat ()).Gc.major_collections in
        let t = timed_pass (fun () -> Recorder.span "pass" p.Workloads.traced_pass) in
        let majors = (Gc.quick_stat ()).Gc.major_collections - m0 in
        let calls = Workloads.take_replayable () in
        add (Workloads.take_traced_problems ());
        let acc = (t, majors, Recorder.take (), if acc = [] then calls else []) :: acc in
        if Measure.now () -. start +. t.wall <= a.seconds /. 2.0 then loop acc
        else List.rev acc
      in
      let traced_rows = loop [] in
      let traced = List.map (fun (t, _, _, _) -> t) traced_rows in
      add (consistency ~what:"traced" traced);
      let t0, _, spans0, calls0 = List.hd traced_rows in
      add t0.outcome.Workloads.violations;
      add
        (Workloads.check
           (String.equal t0.outcome.Workloads.digest first.outcome.Workloads.digest)
           "traced and untraced runs give different result digests");
      let replay, replay_spans, replay_problems = replay_all ~pass:t0 calls0 in
      add replay_problems;
      let rows =
        List.map
          (fun (t, majors, spans, _) ->
            traced_layers ~pass:t ~majors ~spans ~replay)
          traced_rows
      in
      List.iter (fun r -> add (reconcile r)) rows;
      let untraced_wall = Measure.median (List.map (fun t -> t.wall) untraced) in
      let traced_wall = median_of "trace.wall_s" rows in
      let values =
        List.map (fun (k, _) -> (k, median_of k rows)) (List.hd rows)
        @ prng_micro ~seed:a.seed
        @ [ ("trace.overhead_frac", (traced_wall -. untraced_wall) /. untraced_wall) ]
      in
      Recorder.write
        ~path:(Printf.sprintf "_perfbench/%s-seed%d.spans.jsonl" w.Workloads.name a.seed)
        (spans0 @ replay_spans);
      Printf.eprintf "perfbench: %s seed %d traced, %d untraced + %d traced passes\n"
        w.Workloads.name a.seed (List.length untraced) (List.length traced);
      ( values,
        per_layer,
        attempted + isum (fun t -> t.outcome.Workloads.attempted) traced,
        failed + isum (fun t -> t.outcome.Workloads.failed) traced )
    end
  in
  let problems = List.sort_uniq compare !problems in
  List.iter (fun msg -> Printf.eprintf "perfbench: CHECK FAILED: %s\n" msg) problems;
  let nonfinite = List.filter (fun (_, v) -> not (Float.is_finite v)) values in
  List.iter (fun (k, _) -> Printf.eprintf "perfbench: CHECK FAILED: %s is not finite\n" k) nonfinite;
  let correct = problems = [] && nonfinite = [] in
  let values = List.map (fun (k, v) -> (k, if Float.is_finite v then v else 0.0)) values in
  summary ~table values;
  print_result ~correct ~attempted ~failed ~table values;
  if not correct then exit 1
