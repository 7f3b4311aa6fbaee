(* The benchmark's workloads.

   Each workload generates its sweep configs from the seed in [setup] and
   then offers two ways to run the same configs:

   - [pass] runs them untraced through the public entry points a user of
     the library calls ([Sweep.mapi] over points, [Workload.collect_windowed],
     [Workload.collect_pair] + [Workload.score], [Degradation.evaluate]);
   - [traced_pass] re-walks the same calls one layer down
     ([System.run], [Dataset.sliding_features], [Detection.estimate_*],
     [Degradation.run_faulty], [Stream.Moments], [Exec.Pool]) with a
     {!Recorder} span around each call, and must produce the same result
     digest.

   Set-up ends with an arena warm-up: one [System.run] of a config of the
   workload's shape at the full per-run PIAT count, so the timed passes
   start with the domain's simulation buffers at their working size.

   Every point returns a canonical key (the digest input) and the output
   checks it failed. *)

open Scenarios

type point = { key : string; problems : string list }

type outcome = {
  digest : string;  (** MD5 over every point key, in sweep order *)
  attempted : int;
  failed : int;  (** points failed or quarantined by the sweep *)
  violations : string list;
}

type prepared = {
  fingerprint : string;  (** MD5 of the generated configs *)
  pass : unit -> outcome;
  traced_pass : unit -> outcome;
  crosscheck : unit -> string list;
      (** reruns one point with the fused kernels disabled and compares it
          with the kernel path, bit for bit *)
}

type t = {
  name : string;
  jobs : int;
  setup : seed:int -> prepared;
}

let features = Adversary.Feature.standard_set
let md5 s = Digest.to_hex (Digest.string s)

(* -- output checks ------------------------------------------------------ *)

let in_unit x = x >= 0.0 && x <= 1.0

let check cond fmt =
  Printf.ksprintf (fun msg -> if cond then [] else [ msg ]) fmt

let check_scores ~where (scores : Workload.scored list) =
  List.concat_map
    (fun (s : Workload.scored) ->
      let f = Adversary.Feature.name s.Workload.feature in
      check (in_unit s.Workload.empirical) "%s %s: detection rate %g outside [0,1]"
        where f s.Workload.empirical
      @ check (in_unit s.Workload.theory) "%s %s: theory rate %g outside [0,1]"
          where f s.Workload.theory
      @ check
          (s.Workload.n_test > 0 && s.Workload.successes >= 0
          && s.Workload.successes <= s.Workload.n_test)
          "%s %s: %d successes of %d test windows" where f s.Workload.successes
          s.Workload.n_test)
    scores

let check_ratio ~where r = check (r >= 1.0) "%s: r_hat %g < 1" where r

let check_result ~where ~piats (r : System.result) =
  check
    (Array.length r.System.piats = piats)
    "%s: %d PIATs returned, %d requested" where
    (Array.length r.System.piats)
    piats
  @ check
      (r.System.payload_offered
      >= r.System.payload_delivered + r.System.payload_dropped_gw)
      "%s: payload offered %d < delivered %d + dropped %d" where
      r.System.payload_offered r.System.payload_delivered
      r.System.payload_dropped_gw

let scores_key scores =
  String.concat ";"
    (List.map
       (fun (s : Workload.scored) ->
         Printf.sprintf "%s/%d/%h/%h/%d/%d"
           (Adversary.Feature.name s.Workload.feature)
           s.Workload.sample_size s.Workload.empirical s.Workload.theory
           s.Workload.n_test s.Workload.successes)
       scores)

let outcome_of (cells : point Sweep.cell list) =
  let keys, problems, failed =
    List.fold_right
      (fun (c : point Sweep.cell) (keys, problems, failed) ->
        match c.Sweep.value with
        | Some p -> (p.key :: keys, p.problems @ problems, failed)
        | None ->
            (("failed:" ^ c.Sweep.error) :: keys, problems, failed + 1))
      cells ([], [], 0)
  in
  {
    digest = md5 (String.concat "\n" keys);
    attempted = List.length cells;
    failed;
    violations = problems;
  }

let combine outcomes =
  {
    digest = md5 (String.concat "\n" (List.map (fun o -> o.digest) outcomes));
    attempted = List.fold_left (fun a o -> a + o.attempted) 0 outcomes;
    failed = List.fold_left (fun a o -> a + o.failed) 0 outcomes;
    violations = List.concat_map (fun o -> o.violations) outcomes;
  }

let without_kernel f =
  Fastpath.set_enabled false;
  Fun.protect ~finally:(fun () -> Fastpath.set_enabled true) f

(* -- traced layer calls --------------------------------------------------- *)

(* Problems found by the traced wrappers inside sweep tasks, and the
   kernel-eligible System.run calls the stage replay re-executes. *)
let lock = Mutex.create ()
let traced_problems = ref []
let replayable : (int * System.config * int * float array) list ref = ref []
let calls = Atomic.make 0

let take_traced_problems () =
  Mutex.protect lock (fun () ->
      let p = List.rev !traced_problems in
      traced_problems := [];
      p)

let take_replayable () =
  Mutex.protect lock (fun () ->
      let r = List.rev !replayable in
      replayable := [];
      r)

let note_problems ps =
  if ps <> [] then
    Mutex.protect lock (fun () -> traced_problems := List.rev_append ps !traced_problems)

let kernel_eligible (cfg : System.config) =
  Fastpath.enabled ()
  && cfg.System.payload_model = System.Poisson_payload
  && Fastpath.eligible_hops cfg.System.hops

(* Each call carries an id in its span, so the stage replay of a
   kernel-path call can be matched with the call's span. *)
let system_run (cfg : System.config) ~piats =
  let call = Atomic.fetch_and_add calls 1 in
  let r =
    Recorder.span ~counts:true
      ~meta:
        [
          ("call", call);
          ("piats", piats + cfg.System.warmup_piats);
          ("hops", Array.length cfg.System.hops);
        ]
      "system.run"
      (fun () -> System.run cfg ~piats)
  in
  note_problems
    (check_result ~where:(Printf.sprintf "system.run seed=%d" cfg.System.seed) ~piats r);
  if kernel_eligible cfg then
    Mutex.protect lock (fun () ->
        replayable := (call, cfg, piats, r.System.timestamps) :: !replayable);
  r

let fanout_init n f =
  Recorder.span ~counts:true "exec.fanout" (fun () ->
      let ctx = Recorder.context () in
      Exec.Pool.parallel_init n (fun i -> Recorder.within ctx (fun () -> f i)))

let fanout_both f g =
  Recorder.span ~counts:true "exec.fanout" (fun () ->
      let ctx = Recorder.context () in
      Exec.Pool.both
        (fun () -> Recorder.within ctx f)
        (fun () -> Recorder.within ctx g))

let traced_mapi ~sweep ~digest ~seed ?prepare ~task xs =
  Recorder.span "sweep" ~meta:[ ("jobs", Exec.Pool.default_jobs ()) ] (fun () ->
      let ctx = Recorder.context () in
      let prepare =
        Option.map (fun f () -> Recorder.span "sweep.prepare" f) prepare
      in
      Sweep.mapi ~sweep ~digest ~seed ?prepare
        ~task:(fun ~attempt i x ->
          Recorder.within ctx (fun () ->
              Recorder.span ~point:i "sweep.point" (fun () -> task ~attempt i x)))
        xs)

let scored_of_results ~sample_size ~r results =
  List.map2
    (fun feature (res : Adversary.Detection.result) ->
      let sum = Array.fold_left ( + ) 0 in
      {
        Workload.feature;
        sample_size;
        empirical = res.Adversary.Detection.detection_rate;
        theory = Workload.theory_of ~feature ~r ~n:sample_size;
        n_test = sum res.Adversary.Detection.n_test_per_class;
        successes = sum res.Adversary.Detection.n_correct_per_class;
      })
    features results

(* KDE evaluations a detection call performs: every test value against
   every training value of every class. *)
let kernel_evals (results : Adversary.Detection.result list) =
  let sum = Array.fold_left ( + ) 0 in
  List.fold_left
    (fun acc (r : Adversary.Detection.result) ->
      acc
      + (sum r.Adversary.Detection.n_train_per_class
        * sum r.Adversary.Detection.n_test_per_class))
    0 results

let detect f =
  Recorder.span "adversary.detect"
    ~after:(fun results -> [ ("kernel_evals", kernel_evals results) ])
    f

(* [Workload.score] one layer down: window features, then detection. *)
let traced_estimate ~sample_size classes =
  let reference = Calibration.timer_mean in
  List.concat_map
    (fun feature ->
      let named_features =
        Recorder.span "adversary.features"
          ~after:(fun nf ->
            [ ("windows", Array.fold_left (fun a (_, v) -> a + Array.length v) 0 nf) ])
          (fun () ->
            Array.map
              (fun (name, trace) ->
                let n = Array.length trace / sample_size in
                ( name,
                  Array.init n (fun i ->
                      Adversary.Feature.extract_in feature ~reference trace
                        ~pos:(i * sample_size) ~len:sample_size) ))
              classes)
      in
      detect (fun () ->
          [
            Adversary.Detection.estimate_on_features ~feature ~sample_size
              ~named_features ();
          ]))
    features

let traced_score (t : Workload.traces) ~sample_size =
  scored_of_results ~sample_size ~r:t.Workload.r_hat
    (traced_estimate ~sample_size (Workload.classes t))

let class_configs (base : System.config) =
  ( { base with System.payload_rate_pps = Calibration.rate_low_pps },
    {
      base with
      System.payload_rate_pps = Calibration.rate_high_pps;
      seed = base.System.seed + 7919;
    } )

(* [Workload.collect_pair] one layer down. *)
let traced_pair ~base ~piats : Workload.traces =
  let low_cfg, high_cfg = class_configs base in
  let low, high =
    fanout_both
      (fun () -> system_run low_cfg ~piats)
      (fun () -> system_run high_cfg ~piats)
  in
  let var_low, var_high =
    Recorder.span "stats.moments" (fun () ->
        ( Stats.Descriptive.variance low.System.piats,
          Stats.Descriptive.variance high.System.piats ))
  in
  { Workload.low; high; var_low; var_high; r_hat = Float.max (var_high /. var_low) 1.0 }

(* [Workload.collect_windowed] one layer down, for plans without an early
   stop (every shard runs in one round). *)
let traced_windowed ~base ~(plan : Workload.window_plan) =
  let entropy_bin_widths = Adversary.Detection.entropy_bin_widths features in
  let wps = plan.Workload.windows_per_shard in
  let per_shard = Workload.shard_piats plan in
  let shards = (plan.Workload.max_windows + wps - 1) / wps in
  let low_cfg, high_cfg = class_configs base in
  let run_shard cfg shard =
    let cfg = { cfg with System.seed = Prng.Rng.mix_seed cfg.System.seed shard } in
    let r = system_run cfg ~piats:per_shard in
    let w =
      Recorder.span "adversary.features"
        ~after:(fun (w : Adversary.Dataset.windowed) ->
          [ ("windows", w.Adversary.Dataset.w_count * List.length features) ])
        (fun () ->
          Adversary.Dataset.sliding_features ~reference:Calibration.timer_mean
            ~sample_size:plan.Workload.sample_size ~stride:plan.Workload.stride
            ~entropy_bin_widths r.System.piats)
    in
    let m =
      Recorder.span "stats.moments" (fun () ->
          let m = Stats.Stream.Moments.create () in
          Array.iter (Stats.Stream.Moments.add m) r.System.piats;
          m)
    in
    (w, m)
  in
  let results =
    fanout_init (2 * shards) (fun t ->
        run_shard (if t mod 2 = 0 then low_cfg else high_cfg) (t / 2))
  in
  let acc_low = ref (Adversary.Dataset.empty_windowed ~entropy_bin_widths) in
  let acc_high = ref (Adversary.Dataset.empty_windowed ~entropy_bin_widths) in
  let mom_low = ref (Stats.Stream.Moments.create ()) in
  let mom_high = ref (Stats.Stream.Moments.create ()) in
  for k = 0 to shards - 1 do
    let wl, ml = results.(2 * k) and wh, mh = results.((2 * k) + 1) in
    acc_low := Adversary.Dataset.append_windowed !acc_low wl;
    acc_high := Adversary.Dataset.append_windowed !acc_high wh;
    Recorder.span "stats.moments" (fun () ->
        mom_low := Stats.Stream.Moments.merge !mom_low ml;
        mom_high := Stats.Stream.Moments.merge !mom_high mh)
  done;
  let var_low, var_high =
    Recorder.span "stats.moments" (fun () ->
        ( Stats.Stream.Moments.variance !mom_low,
          Stats.Stream.Moments.variance !mom_high ))
  in
  let ratio_hat = Float.max (var_high /. var_low) 1.0 in
  let results =
    detect (fun () ->
        Adversary.Detection.estimate_windowed ~features
          ~sample_size:plan.Workload.sample_size
          ~named_windows:
            [| (Calibration.label_low, !acc_low); (Calibration.label_high, !acc_high) |]
          ())
  in
  ( {
      Workload.low_windows = !acc_low;
      high_windows = !acc_high;
      piat_var_low = var_low;
      piat_var_high = var_high;
      ratio_hat;
      shards_run = shards;
      piats_per_class = shards * per_shard;
      stopped_early = false;
    },
    scored_of_results ~sample_size:plan.Workload.sample_size ~r:ratio_hat results )

(* -- windowed points (wan_day, event_loop's on/off part) ------------------- *)

let windowed_point ~where ~(plan : Workload.window_plan)
    ((pair : Workload.windowed_pair), scores) =
  let wps = plan.Workload.windows_per_shard in
  let shards = (plan.Workload.max_windows + wps - 1) / wps in
  let windows = shards * wps in
  {
    key =
      Printf.sprintf "%h|%h|%h|%d|%d|%d|%d|%s" pair.Workload.ratio_hat
        pair.Workload.piat_var_low pair.Workload.piat_var_high
        pair.Workload.shards_run pair.Workload.piats_per_class
        pair.Workload.low_windows.Adversary.Dataset.w_count
        pair.Workload.high_windows.Adversary.Dataset.w_count
        (scores_key scores);
    problems =
      (* Each shard's trace yields [wps] windows only if its System.run
         returned the full [shard_piats] PIATs. *)
      check
        (pair.Workload.low_windows.Adversary.Dataset.w_count = windows
        && pair.Workload.high_windows.Adversary.Dataset.w_count = windows)
        "%s: %d/%d windows, %d expected per class" where
        pair.Workload.low_windows.Adversary.Dataset.w_count
        pair.Workload.high_windows.Adversary.Dataset.w_count windows
      @ check
          (pair.Workload.piats_per_class = shards * Workload.shard_piats plan)
          "%s: %d PIATs per class" where pair.Workload.piats_per_class
      @ check_ratio ~where pair.Workload.ratio_hat
      @ check_scores ~where scores;
  }

(* A windowed-detection sweep over prepared base configs. *)
let windowed_sweep ~name ~seed ~plan ~labels bases =
  let digest = Sweep.digest_of_string (name ^ "|" ^ String.concat "," labels) in
  let points = List.combine labels bases in
  let task run ~attempt _i (label, (base : System.config)) =
    let base =
      { base with System.seed = Sweep.attempt_seed ~seed:base.System.seed ~attempt }
    in
    windowed_point ~where:(name ^ " " ^ label) ~plan (run ~base ~plan)
  in
  let pass () =
    outcome_of
      (Sweep.mapi ~sweep:name ~digest ~seed
         ~task:(task (fun ~base ~plan -> Workload.collect_windowed ~base ~plan ~features))
         points)
  in
  let traced_pass () =
    outcome_of
      (traced_mapi ~sweep:name ~digest ~seed
         ~task:(task (fun ~base ~plan -> traced_windowed ~base ~plan))
         points)
  in
  let point_key i =
    (task
       (fun ~base ~plan -> Workload.collect_windowed ~base ~plan ~features)
       ~attempt:0 i (List.nth points i))
      .key
  in
  (pass, traced_pass, point_key)

let fingerprint_of parts = md5 (String.concat "|" parts)

(* Compare a point's key computed on the event loop with its kernel-path
   key. *)
let crosscheck_point ~where key =
  let kernel = key () in
  let event_loop = without_kernel key in
  check (String.equal kernel event_loop)
    "%s: event-loop rerun differs from the kernel path" where

(* -- wan_day -------------------------------------------------------------- *)

(* Fig 8(b)'s shape: 12 diurnal hours, evenly spaced from a seeded phase,
   over the 15-router WAN chain; CIT padding; windowed detection with the
   smallest window plan the scorer accepts.  Each tap PIAT costs thousands
   of cross-traffic enqueues, so n = 50 and a 50-PIAT warm-up keep a pass
   near a second and a run averages many passes; at the figure's
   n = 1000 one pass takes 15-21 s. *)
let wan_day =
  let setup ~seed =
    let rng = Prng.Rng.create ~seed in
    let phase = Prng.Rng.float_range rng ~lo:0.0 ~hi:2.0 in
    let hours = List.init 12 (fun i -> (2.0 *. float_of_int i) +. phase) in
    let plan =
      Workload.window_plan ~sample_size:50 ~min_windows:4 ~max_windows:4 ()
    in
    let bases =
      List.mapi
        (fun i hour ->
          let hops = Fig8.hops_for Fig8.Wan ~hour in
          {
            System.default_config with
            System.seed = Prng.Rng.mix_seed seed i;
            hops;
            tap_position = Array.length hops;
            warmup_piats = 50;
          })
        hours
    in
    let labels = List.map (Printf.sprintf "hour=%h") hours in
    (* Warm up on the 04:00 trough rather than the first (seeded) hour,
       so set-up costs the same at every seed. *)
    let trough = Fig8.hops_for Fig8.Wan ~hour:4.0 in
    ignore
      (System.run
         { (List.hd bases) with System.hops = trough }
         ~piats:(Workload.shard_piats plan));
    let pass, traced_pass, point_key =
      windowed_sweep ~name:"wan_day" ~seed ~plan ~labels bases
    in
    (* The hour nearest the 04:00 trough (2 + phase or 4 + phase) is the
       cheapest point to rerun on the event loop. *)
    let quiet = if phase < 1.0 then 2 else 1 in
    {
      fingerprint =
        fingerprint_of
          (labels @ List.map (fun (b : System.config) -> string_of_int b.System.seed) bases);
      pass;
      traced_pass;
      crosscheck =
        (fun () ->
          crosscheck_point
            ~where:(Printf.sprintf "wan_day point %d" quiet)
            (fun () -> point_key quiet));
    }
  in
  { name = "wan_day"; jobs = 1; setup }

(* -- vit_design ------------------------------------------------------------ *)

(* Fig 5(a)'s shape: a sigma_T sweep of VIT Normal padding with
   mechanistic jitter, gateway only, n = 2000 over many windows; the
   gateway calibration is part of set-up. *)
let vit_design =
  let sample_size = 2000 and windows = 48 in
  let piats = sample_size * windows in
  let base_sigmas = [ 1e-6; 2e-6; 5e-6; 10e-6; 20e-6; 50e-6; 100e-6; 200e-6 ] in
  let setup ~seed =
    let rng = Prng.Rng.create ~seed in
    let sigmas =
      List.map
        (fun s -> s *. exp (Prng.Rng.float_range rng ~lo:(-0.1) ~hi:0.1))
        base_sigmas
    in
    let calibration = Calibration.measure_gateway_sigmas ~seed:(seed + 13) () in
    let predicted sigma_t =
      Analytical.Ratio.r
        (Analytical.Ratio.make ~sigma_t
           ~sigma_gw_low:calibration.Calibration.sigma_low
           ~sigma_gw_high:calibration.Calibration.sigma_high ())
    in
    let bases =
      List.mapi
        (fun i sigma ->
          {
            System.default_config with
            System.seed = Prng.Rng.mix_seed seed i;
            timer =
              Padding.Timer.Normal { mean = Calibration.timer_mean; sigma };
          })
        sigmas
    in
    ignore (System.run (List.hd bases) ~piats);
    let labels = List.map (Printf.sprintf "sigma_t=%h") sigmas in
    let digest = Sweep.digest_of_string ("vit_design|" ^ String.concat "," labels) in
    let points = List.combine sigmas bases in
    let task collect score ~attempt _i (sigma, (base : System.config)) =
      let base =
        { base with System.seed = Sweep.attempt_seed ~seed:base.System.seed ~attempt }
      in
      let where = Printf.sprintf "vit_design sigma_t=%g" sigma in
      let traces : Workload.traces = collect ~base ~piats in
      let scores = score traces in
      {
        key =
          Printf.sprintf "%h|%h|%h|%h|%s" traces.Workload.r_hat
            traces.Workload.var_low traces.Workload.var_high (predicted sigma)
            (scores_key scores);
        problems =
          check_result ~where:(where ^ " low") ~piats traces.Workload.low
          @ check_result ~where:(where ^ " high") ~piats traces.Workload.high
          @ check_ratio ~where traces.Workload.r_hat
          @ check_scores ~where scores;
      }
    in
    let untraced =
      task
        (fun ~base ~piats -> Workload.collect_pair ~base ~piats)
        (fun t -> Workload.score t ~features ~sample_size)
    in
    let traced =
      task
        (fun ~base ~piats -> traced_pair ~base ~piats)
        (fun t -> traced_score t ~sample_size)
    in
    {
      fingerprint =
        fingerprint_of
          (labels
          @ List.map (fun (b : System.config) -> string_of_int b.System.seed) bases
          @ [ Printf.sprintf "%h|%h" calibration.Calibration.sigma_low
                calibration.Calibration.sigma_high ]);
      pass =
        (fun () ->
          outcome_of (Sweep.mapi ~sweep:"vit_design" ~digest ~seed ~task:untraced points));
      traced_pass =
        (fun () ->
          outcome_of (traced_mapi ~sweep:"vit_design" ~digest ~seed ~task:traced points));
      crosscheck =
        (fun () ->
          crosscheck_point ~where:"vit_design point 0" (fun () ->
              (untraced ~attempt:0 0 (List.hd points)).key));
    }
  in
  { name = "vit_design"; jobs = 1; setup }

(* -- small_samples --------------------------------------------------------- *)

(* Fig 4(b)'s shape: one CIT trace pair collected in [prepare] and shared
   by every point, scored at n = 10 ... 1000; the only workload on two
   jobs, so pool fan-out and point imbalance show here. *)
let small_samples =
  let sample_sizes = [ 10; 20; 50; 100; 200; 400; 700; 1000 ] in
  let windows = 20 in
  let piats = 1000 * windows in
  let setup ~seed =
    let base = { System.default_config with System.seed = Prng.Rng.mix_seed seed 0 } in
    ignore (System.run base ~piats);
    let digest =
      Sweep.digest_of_string
        (Printf.sprintf "small_samples|%d|%d" base.System.seed windows)
    in
    let traces_check (t : Workload.traces) =
      {
        key =
          Printf.sprintf "%h|%h|%h" t.Workload.r_hat t.Workload.var_low
            t.Workload.var_high;
        problems =
          check_result ~where:"small_samples low" ~piats t.Workload.low
          @ check_result ~where:"small_samples high" ~piats t.Workload.high
          @ check_ratio ~where:"small_samples" t.Workload.r_hat;
      }
    in
    let last = ref None in
    let run ~mapi ~collect ~score =
      let traces = ref None in
      let prepare () = traces := Some (collect ~base ~piats) in
      let cells =
        mapi ~sweep:"small_samples" ~digest ~seed ~prepare
          ~task:(fun ~attempt:_ _i n ->
            match !traces with
            | None -> raise (Sweep.Sweep_internal_error "prepare collected nothing")
            | Some t ->
                let scores = score t n in
                {
                  key = scores_key scores;
                  problems =
                    check_scores ~where:(Printf.sprintf "small_samples n=%d" n) scores;
                })
          sample_sizes
      in
      let shared =
        match !traces with
        | Some t ->
            last := Some t;
            traces_check t
        | None -> { key = "no traces"; problems = [] }
      in
      let o = outcome_of cells in
      {
        o with
        digest = md5 (o.digest ^ shared.key);
        violations = shared.problems @ o.violations;
      }
    in
    let score t n = Workload.score t ~features ~sample_size:n in
    {
      fingerprint = fingerprint_of [ string_of_int base.System.seed; string_of_int windows ];
      pass =
        (fun () ->
          run
            ~mapi:(fun ~sweep ~digest ~seed ~prepare ~task xs ->
              Sweep.mapi ~sweep ~digest ~seed ~prepare ~task xs)
            ~collect:(fun ~base ~piats -> Workload.collect_pair ~base ~piats)
            ~score);
      traced_pass =
        (fun () ->
          run
            ~mapi:(fun ~sweep ~digest ~seed ~prepare ~task xs ->
              traced_mapi ~sweep ~digest ~seed ~prepare ~task xs)
            ~collect:(fun ~base ~piats -> traced_pair ~base ~piats)
            ~score:(fun t n -> traced_score t ~sample_size:n));
      crosscheck =
        (fun () ->
          match !last with
          | None -> [ "small_samples: crosscheck before any pass" ]
          | Some kernel ->
              let ev = without_kernel (fun () -> Workload.collect_pair ~base ~piats) in
              check
                (Replay.bit_equal kernel.Workload.low.System.piats ev.Workload.low.System.piats
                && Replay.bit_equal kernel.Workload.high.System.piats
                     ev.Workload.high.System.piats
                && String.equal (scores_key (score kernel 1000)) (scores_key (score ev 1000)))
                "small_samples: event-loop rerun of the trace pair differs");
    }
  in
  { name = "small_samples"; jobs = 2; setup }

(* -- event_loop ------------------------------------------------------------ *)

(* [Degradation.evaluate] one layer down. *)
let traced_evaluate ~piats ~sample_size ~seed ~profile ~intensity :
    Degradation.point =
  let tau = Calibration.timer_mean in
  let base = { Degradation.default_config with Degradation.seed; profile } in
  let run cfg =
    let r =
      Recorder.span ~counts:true "faults.run_faulty" (fun () ->
          Degradation.run_faulty cfg ~piats)
    in
    note_problems
      (check
         (r.Degradation.payload_offered >= r.Degradation.payload_dropped_gw)
         "faults.run_faulty seed=%d: offered %d < dropped %d" cfg.Degradation.seed
         r.Degradation.payload_offered r.Degradation.payload_dropped_gw);
    r
  in
  let low, high =
    fanout_both
      (fun () -> run { base with Degradation.seed = (seed * 2) + 1 })
      (fun () ->
        run
          {
            base with
            Degradation.seed = (seed * 2) + 2;
            payload_rate_pps = Calibration.rate_high_pps;
          })
  in
  let classes =
    [|
      (Calibration.label_low, low.Degradation.piats);
      (Calibration.label_high, high.Degradation.piats);
    |]
  in
  let standard = traced_estimate ~sample_size classes in
  let folded_classes =
    Recorder.span "adversary.features" (fun () ->
        Array.map (fun (name, trace) -> (name, Adversary.Gaps.fold ~tau trace)) classes)
  in
  let folded = traced_estimate ~sample_size folded_classes in
  let rate_of feature =
    match
      List.find_opt (fun r -> r.Adversary.Detection.feature = feature) standard
    with
    | Some r -> r.Adversary.Detection.detection_rate
    | None -> Float.nan
  in
  let offered = low.Degradation.payload_offered + high.Degradation.payload_offered in
  let delivered =
    low.Degradation.payload_delivered + high.Degradation.payload_delivered
  in
  {
    Degradation.intensity;
    v_mean = rate_of Adversary.Feature.Sample_mean;
    v_variance = rate_of Adversary.Feature.Sample_variance;
    v_entropy =
      rate_of
        (Adversary.Feature.Sample_entropy
           { bin_width = Adversary.Feature.default_entropy_bin_width });
    v_gap =
      List.fold_left
        (fun acc r -> Float.max acc r.Adversary.Detection.detection_rate)
        0.0 folded;
    gap_fraction =
      Recorder.span "adversary.features" (fun () ->
          Adversary.Gaps.gap_fraction ~tau high.Degradation.piats);
    overhead = (low.Degradation.overhead +. high.Degradation.overhead) /. 2.0;
    mean_latency =
      (low.Degradation.mean_payload_latency +. high.Degradation.mean_payload_latency)
      /. 2.0;
    delivered_frac =
      (if offered = 0 then 0.0 else float_of_int delivered /. float_of_int offered);
    dropped_gw = low.Degradation.payload_dropped_gw + high.Degradation.payload_dropped_gw;
    lost_wire = low.Degradation.lost_wire + high.Degradation.lost_wire;
    lost_down =
      low.Degradation.lost_outage + high.Degradation.lost_outage
      + low.Degradation.lost_crash + high.Degradation.lost_crash;
    crashes = low.Degradation.crashes + high.Degradation.crashes;
    downtime = low.Degradation.gw_downtime +. high.Degradation.gw_downtime;
  }

let degradation_point ~where (p : Degradation.point) =
  let rates =
    [ p.Degradation.v_mean; p.Degradation.v_variance; p.Degradation.v_entropy; p.Degradation.v_gap ]
  in
  {
    key =
      Printf.sprintf "%h|%h|%h|%h|%h|%h|%h|%h|%h|%d|%d|%d|%d|%h"
        p.Degradation.intensity p.Degradation.v_mean p.Degradation.v_variance
        p.Degradation.v_entropy p.Degradation.v_gap p.Degradation.gap_fraction
        p.Degradation.overhead p.Degradation.mean_latency
        p.Degradation.delivered_frac p.Degradation.dropped_gw
        p.Degradation.lost_wire p.Degradation.lost_down p.Degradation.crashes
        p.Degradation.downtime;
    problems =
      List.concat_map
        (fun v -> check (in_unit v) "%s: detection rate %g outside [0,1]" where v)
        rates
      @ check (in_unit p.Degradation.overhead) "%s: overhead %g outside [0,1]" where
          p.Degradation.overhead;
  }

(* Fig 6's shape with Pareto on/off cross traffic at several lab
   utilisations (the kernel declines on/off cross traffic), plus the
   fault-intensity degradation sweep (fault injectors always take the
   event loop).

   The sweep keeps the wire and clock faults of
   [Degradation.profile_of_intensity] but switches link flapping and
   gateway crashes off.  Both leave rare, seed-dependent gaps of a
   second or more in the tap trace, and the entropy feature sizes its
   histogram by the window's span at 1 us bins: one such gap took a
   pass's peak RSS from 11 to 30 MB and its time up by a fifth, so the
   cost of a pass would depend on whether the seed drew an outage. *)
let event_loop =
  let utilizations = [ 0.05; 0.10; 0.15; 0.20; 0.25; 0.30 ] in
  (* Pareto periods with a finite variance (shape 2.5) and many on/off
     cycles per run, so the offered cross load, and with it the cost of
     a pass, barely depends on the seed. *)
  let burst = `On_off (0.02, 0.02, Some 2.5) in
  let intensities = [ 0.0; 0.05; 0.1; 0.2; 0.4 ] in
  let profile x =
    { (Degradation.profile_of_intensity x) with Degradation.flap = None; mtbf = infinity }
  in
  let fault_sample_size = 400 in
  let fault_piats = 20 * fault_sample_size in
  let setup ~seed =
    let plan = Workload.window_plan ~sample_size:1000 ~max_windows:6 () in
    let bases =
      List.mapi
        (fun i utilization ->
          {
            System.default_config with
            System.seed = Prng.Rng.mix_seed seed i;
            hops = [| Fig6.hop_for_utilization ~utilization ~burst |];
            tap_position = 1;
          })
        utilizations
    in
    (* Degradation derives its class seeds as 2s+1 / 2s+2: keep s small. *)
    let fault_seeds =
      List.mapi (fun i _ -> Prng.Rng.mix_seed seed (100 + i) land 0x3FFF_FFFF) intensities
    in
    ignore (System.run (List.hd bases) ~piats:(Workload.shard_piats plan));
    ignore
      (Degradation.run_faulty
         { Degradation.default_config with Degradation.seed = List.hd fault_seeds }
         ~piats:fault_piats);
    let labels = List.map (Printf.sprintf "util=%h") utilizations in
    let onoff_pass, onoff_traced, _ =
      windowed_sweep ~name:"event_loop.onoff" ~seed ~plan ~labels bases
    in
    let fault_points = List.combine intensities fault_seeds in
    let fault_digest =
      Sweep.digest_of_string
        ("event_loop.faults|"
        ^ String.concat "," (List.map (fun (x, s) -> Printf.sprintf "%h:%d" x s) fault_points))
    in
    let fault_task evaluate ~attempt _i (intensity, s) =
      degradation_point
        ~where:(Printf.sprintf "event_loop.faults intensity=%g" intensity)
        (evaluate ~piats:fault_piats ~sample_size:fault_sample_size
           ~seed:(Sweep.attempt_seed ~seed:s ~attempt)
           ~profile:(profile intensity) ~intensity)
    in
    {
      fingerprint =
        fingerprint_of
          (labels
          @ List.map (fun (b : System.config) -> string_of_int b.System.seed) bases
          @ List.map string_of_int fault_seeds);
      pass =
        (fun () ->
          let a = onoff_pass () in
          let b =
            outcome_of
              (Sweep.mapi ~sweep:"event_loop.faults" ~digest:fault_digest ~seed
                 ~task:
                   (fault_task (fun ~piats ~sample_size ~seed ~profile ~intensity ->
                        Degradation.evaluate ~piats ~sample_size ~seed ~profile ~intensity ()))
                 fault_points)
          in
          combine [ a; b ]);
      traced_pass =
        (fun () ->
          let a = onoff_traced () in
          let b =
            outcome_of
              (traced_mapi ~sweep:"event_loop.faults" ~digest:fault_digest ~seed
                 ~task:(fault_task traced_evaluate) fault_points)
          in
          combine [ a; b ]);
      (* Nothing here takes the kernel path, so there is nothing to
         compare against the event loop. *)
      crosscheck = (fun () -> []);
    }
  in
  { name = "event_loop"; jobs = 1; setup }

(* -- kernel_path -------------------------------------------------------------- *)

(* Workloads run as one: set-up, passes and checks run every part in
   order, each at its own job count. *)
let combined ~name parts =
  let setup ~seed =
    let parts =
      List.map (fun w -> (w.jobs, Exec.Pool.with_jobs w.jobs (fun () -> w.setup ~seed))) parts
    in
    let each f = List.map (fun (jobs, p) -> Exec.Pool.with_jobs jobs (fun () -> f p)) parts in
    {
      fingerprint = fingerprint_of (List.map (fun (_, p) -> p.fingerprint) parts);
      pass = (fun () -> combine (each (fun p -> p.pass ())));
      traced_pass = (fun () -> combine (each (fun p -> p.traced_pass ())));
      crosscheck = (fun () -> List.concat (each (fun p -> p.crosscheck ())));
    }
  in
  { name; jobs = 1; setup }

(* Every config of these three takes the fused kernels.  One workload
   rather than three lets each run measure twice as long in the same
   total time: passes on a shared host run fast or slow in stretches of
   seconds to minutes, and a longer run averages more of them. *)
let kernel_path = combined ~name:"kernel_path" [ wan_day; vit_design; small_samples ]

let all = [ kernel_path; event_loop ]
