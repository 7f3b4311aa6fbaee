(* Fused-kernel fast path: the differential contract.

   [System.run]'s kernel path must be observably indistinguishable from
   the event loop — same RNG draws in the same order, bit-identical
   result fields, metric totals and ta-trace/1 bytes, at any worker
   count, through checkpoint/resume.  These tests run every eligible
   configuration shape both ways and compare everything; plus property
   tests for the batched variate generator and the geometric boundary
   the kernel work surfaced. *)

module System = Scenarios.System
module Fastpath = Scenarios.Fastpath

let with_jobs jobs f =
  Exec.Pool.set_default_jobs jobs;
  Fun.protect ~finally:(fun () -> Exec.Pool.set_default_jobs 1) f

let with_kernel on f =
  let was = Fastpath.enabled () in
  Fastpath.set_enabled on;
  Fun.protect ~finally:(fun () -> Fastpath.set_enabled was) f

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* --- Sampler.exponential_fill: bit-equality and validation --- *)

let test_exponential_fill_bit_equality () =
  List.iter
    (fun (seed, rate) ->
      let n = 100_000 in
      let scalar_rng = Prng.Rng.create ~seed in
      let fill_rng = Prng.Rng.create ~seed in
      let buf = Float.Array.create n in
      Prng.Sampler.exponential_fill fill_rng ~rate buf ~n;
      for i = 0 to n - 1 do
        let s = Prng.Sampler.exponential scalar_rng ~rate in
        if
          Int64.bits_of_float s
          <> Int64.bits_of_float (Float.Array.get buf i)
        then
          Alcotest.failf "seed=%d rate=%g draw %d: scalar %h <> fill %h" seed
            rate i s (Float.Array.get buf i)
      done)
    [ (1, 10.0); (7, 0.5); (42, 1e4); (12345, 1.0) ]

let test_exponential_fill_partial () =
  (* Filling a prefix must consume exactly n draws and leave the tail
     untouched. *)
  let rng_a = Prng.Rng.create ~seed:9 in
  let rng_b = Prng.Rng.create ~seed:9 in
  let buf = Float.Array.make 64 (-1.0) in
  Prng.Sampler.exponential_fill rng_a ~rate:2.0 buf ~n:10;
  for i = 10 to 63 do
    Alcotest.(check (float 0.0))
      "tail untouched" (-1.0)
      (Float.Array.get buf i)
  done;
  Alcotest.(check (float 0.0))
    "stream position = 10 scalar draws"
    (let rec skip k = if k = 0 then () else (ignore (Prng.Sampler.exponential rng_b ~rate:2.0); skip (k - 1)) in
     skip 10;
     Prng.Sampler.exponential rng_b ~rate:2.0)
    (Prng.Sampler.exponential rng_a ~rate:2.0)

let expect_invalid f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_exponential_fill_invalid () =
  let rng = Prng.Rng.create ~seed:1 in
  let buf = Float.Array.create 8 in
  expect_invalid (fun () ->
      Prng.Sampler.exponential_fill rng ~rate:0.0 buf ~n:8);
  expect_invalid (fun () ->
      Prng.Sampler.exponential_fill rng ~rate:(-1.0) buf ~n:8);
  expect_invalid (fun () ->
      Prng.Sampler.exponential_fill rng ~rate:Float.nan buf ~n:8);
  expect_invalid (fun () ->
      Prng.Sampler.exponential_fill rng ~rate:1.0 buf ~n:0);
  expect_invalid (fun () ->
      Prng.Sampler.exponential_fill rng ~rate:1.0 buf ~n:9);
  expect_invalid (fun () ->
      Prng.Sampler.exponential_fill rng ~rate:1.0 (Float.Array.create 0) ~n:0)

(* --- geometric boundary: p = 1 and NaN (regression) --- *)

(* --- allocation ceilings on the fused paths ---

   The A001 lint sees closures, literals and polymorphic compares, but
   not boxing: a store into a [mutable int64] field, or a float passed to
   or returned from another module's function (modules are compiled
   [-opaque]).  These ceilings measure it.  Every [until] is boxed before
   the measured window opens, and each window covers one call only. *)

let minor_words_per_call f args =
  let rec go words = function
    | [] -> words
    | x :: rest ->
        let w0 = Gc.minor_words () in
        f x;
        go (words +. (Gc.minor_words () -. w0)) rest
  in
  go 0.0 args

let chunk_ends n = List.init n (fun k -> float_of_int (k + 1) *. 0.1)

let test_alloc_exponential_fill () =
  let rng = Prng.Rng.create ~seed:1 in
  let buf = Float.Array.create 256 in
  let words =
    minor_words_per_call
      (fun rate -> Prng.Sampler.exponential_fill rng ~rate buf ~n:256)
      (List.init 400 (fun k -> 100.0 +. float_of_int k))
  in
  if words > 0.0 then
    Alcotest.failf "exponential_fill: %g words per draw (want 0)"
      (words /. (400.0 *. 256.0))

let test_alloc_linkstage () =
  (* One hop at utilisation 0.8 from Poisson cross traffic alone, with
     and without propagation delay; tracing off.  A first run grows the
     ring to its working size. *)
  let st = Netsim.Linkstage.create () in
  let empty = Netsim.Fvec.create () in
  let run ~propagation chunks =
    Netsim.Linkstage.configure st ~bandwidth_bps:1e6 ~propagation
      ~queue_limit:None ~packet_size:500
      ~cross:(Some (Prng.Rng.create ~seed:3, 250.0, 400))
      ~in_t:empty ~in_tag:empty;
    minor_words_per_call
      (fun until -> Netsim.Linkstage.advance st ~until)
      (chunk_ends chunks)
  in
  List.iter
    (fun propagation ->
      ignore (run ~propagation 2000 : float);
      let words = run ~propagation 1000 in
      let enq = Netsim.Linkstage.enqueued st in
      Alcotest.(check bool) "heavy cross traffic" true (enq > 20_000);
      if words > 0.0 then
        Alcotest.failf "Linkstage.advance (propagation %g): %g words per \
                        enqueue (want 0)"
          propagation
          (words /. float_of_int enq))
    [ 0.0; 0.002 ]

let test_alloc_kernel () =
  (* The kernel allocates nothing per fire: the loop itself, and the
     timer and jitter draws, which write into a register slot.  Every
     timer law under every jitter model, at 0 words per fire. *)
  let kgw = Padding.Kernel.create () in
  let run ~timer ~jitter chunks =
    Padding.Kernel.configure kgw ~rng_payload:(Prng.Rng.create ~seed:1)
      ~rng_gateway:(Prng.Rng.create ~seed:2) ~timer ~jitter ~packet_size:500
      ~payload_rate:50.0;
    minor_words_per_call
      (fun until -> Padding.Kernel.advance kgw ~until)
      (chunk_ends chunks)
  in
  let timers =
    [
      ("CIT", Padding.Timer.Constant 0.010);
      ("VIT normal", Padding.Timer.Normal { mean = 0.010; sigma = 0.002 });
      ("VIT uniform", Padding.Timer.Uniform { mean = 0.010; half_width = 0.004 });
      ("VIT exponential", Padding.Timer.Exponential { mean = 0.010 });
    ]
  and jitters =
    [
      ("no jitter", Padding.Jitter.none);
      ("parametric jitter", Padding.Jitter.parametric ~mu:3e-6 ~sigma:2e-6);
      ("mechanistic jitter", Padding.Jitter.mechanistic ());
    ]
  in
  List.iter
    (fun (tname, timer) ->
      List.iter
        (fun (jname, jitter) ->
          ignore (run ~timer ~jitter 2000 : float);
          let per_fire =
            run ~timer ~jitter 1000 /. float_of_int (Padding.Kernel.fires kgw)
          in
          if per_fire > 0.0 then
            Alcotest.failf "Kernel.advance (%s, %s): %g words per fire (want 0)"
              tname jname per_fire)
        jitters)
    timers

let test_alloc_scoring () =
  (* KDE-Bayes scoring: the densities run plain loops, so what is left
     per classified point is the float boxed across each module call
     (the point itself, one log-density per class). *)
  let sample n seed =
    let rng = Prng.Rng.create ~seed in
    Array.init n (fun _ -> Prng.Sampler.normal rng ~mu:0.0 ~sigma:1.0)
  in
  let cases = [| (0, sample 500 3); (1, sample 500 4) |] in
  List.iter
    (fun n ->
      let clf =
        Adversary.Classifier.train
          ~classes:
            [|
              ("a", sample n 1);
              ("b", Array.map (fun x -> x +. 0.5) (sample n 2));
            |]
          ()
      in
      let words =
        minor_words_per_call
          (fun cases -> ignore (Adversary.Classifier.correct_counts clf cases))
          [ cases; cases ]
      in
      let per_point = words /. 2000.0 in
      if per_point > 16.0 then
        Alcotest.failf
          "Classifier.correct_counts (%d points per class): %g words per \
           classified point (want <= 16)"
          n per_point)
    [ 100; 1000 ]

let test_alloc_entropy () =
  (* The sample entropy of a 1 000-PIAT window allocates nothing that
     grows with its span: the same minor words (the floats boxed across
     module calls) whether the window spans 1 ms (a dense count over
     1 000 bins) or holds a 1 s or 10^5 s gap (sorted runs over 10^6 or
     10^11 bins), and nothing in the major heap once the scratch has
     grown. *)
  let window gap =
    Array.init 1000 (fun i ->
        if i = 500 then 0.010 +. gap else 0.010 +. (1e-6 *. float_of_int i))
  in
  let windows = List.map window [ 0.0; 1.0; 1e5 ] in
  let entropy xs =
    ignore
      (Sys.opaque_identity
         (Stats.Entropy.of_sample_in ~bin_width:1e-6 ~reference:0.010 xs
            ~pos:0 ~len:1000))
  in
  List.iter entropy windows;
  (* Major words count promotions too; what is left is allocated in the
     major heap directly, as any array over 256 words is.  A minor
     collection flushes the domain's counters. *)
  let direct_major () =
    Gc.minor ();
    let _, promoted, major = Gc.counters () in
    major -. promoted
  in
  let major0 = direct_major () in
  let words = List.map (fun xs -> minor_words_per_call entropy [ xs ]) windows in
  let major = direct_major () -. major0 in
  if not (List.for_all (Float.equal (List.hd words)) words) then
    Alcotest.failf
      "Entropy.of_sample_in: %s minor words for spans of 1 ms, 1 s, 10^5 s \
       (want equal)"
      (String.concat ", " (List.map string_of_float words));
  if major > 0.0 then
    Alcotest.failf "Entropy.of_sample_in: %g major words after warm-up" major

(* --- link-stage ties ---

   An exact coincidence of two pending streams is ordered by queue
   sequence in the event loop, so [Linkstage.advance] must raise [Tie]
   on every one; the same train one ulp later must run through.  One
   hop, no queue limit, hand-built padded input. *)

let tx = Netsim.Linkstage.tx_time ~size_bytes:500 ~bandwidth_bps:1e6

let stage ?(propagation = 0.0) ?cross times =
  let st = Netsim.Linkstage.create () in
  let in_t = Netsim.Fvec.create () and in_tag = Netsim.Fvec.create () in
  List.iteri
    (fun i time ->
      Netsim.Fvec.push in_t time;
      Netsim.Fvec.push in_tag (float_of_int i))
    times;
  Netsim.Linkstage.configure st ~bandwidth_bps:1e6 ~propagation
    ~queue_limit:None ~packet_size:500 ~cross ~in_t ~in_tag;
  (st, in_t, in_tag)

let ties ?propagation ?cross times =
  let st, _, _ = stage ?propagation ?cross times in
  match Netsim.Linkstage.advance st ~until:1.0 with
  | () -> false
  | exception Netsim.Linkstage.Tie -> true

let test_linkstage_ties () =
  let cross_rng = Prng.Rng.create ~seed:11 and cross_rate = 50.0 in
  let cross () = Some (Prng.Rng.copy cross_rng, cross_rate, 400) in
  (* The first cross arrival: 0 + the stream's first draw. *)
  let first_cross =
    0.0 +. Prng.Sampler.exponential (Prng.Rng.copy cross_rng) ~rate:cross_rate
  in
  let p = 0.002 in
  (* A propagation that puts the first packet's delivery one ulp after
     the second's finish (tx +. succ tx would round back onto it). *)
  let p_later = Float.succ (tx +. tx) -. tx in
  Alcotest.(check (float 0.0)) "delivery one ulp later"
    (Float.succ (tx +. tx))
    (tx +. p_later);
  List.iter
    (fun (name, tie, succ) ->
      Alcotest.(check bool) (name ^ ": tie raised") true (tie ());
      Alcotest.(check bool) (name ^ ": one ulp later runs") false (succ ()))
    [
      ( "input at a pending finish",
        (fun () -> ties [ 0.0; tx ]),
        fun () -> ties [ 0.0; Float.succ tx ] );
      ( "input at the first cross arrival",
        (fun () -> ties ?cross:(cross ()) [ first_cross ]),
        fun () -> ties ?cross:(cross ()) [ Float.succ first_cross ] );
      ( "input at a pending delivery",
        (fun () -> ties ~propagation:p [ 0.0; tx +. p ]),
        fun () -> ties ~propagation:p [ 0.0; Float.succ (tx +. p) ] );
      ( "finish at an earlier packet's delivery",
        (* The second packet waits for the first: it finishes at
           (0 + tx) + tx, the first's delivery at (0 + tx) + p. *)
        (fun () -> ties ~propagation:tx [ 0.0; 0.5 *. tx ]),
        fun () -> ties ~propagation:p_later [ 0.0; 0.5 *. tx ] );
    ]

let test_linkstage_chunk_at_finish () =
  (* A finish exactly at a chunk's [until] belongs to that chunk, and
     its delivery with it (no propagation) or in the chunk reaching
     finish + propagation. *)
  let fvec v = Array.to_list (Netsim.Fvec.to_array v) in
  let check_chunk st name ~events ~times ~tags =
    Alcotest.(check int) (name ^ ": chunk events") events
      (Netsim.Linkstage.chunk_events st);
    Alcotest.(check (list (float 0.0))) (name ^ ": out times") times
      (fvec (Netsim.Linkstage.out_times st));
    Alcotest.(check (list (float 0.0))) (name ^ ": out tags") tags
      (fvec (Netsim.Linkstage.out_tags st))
  in
  let st, in_t, in_tag = stage [ 0.0 ] in
  Netsim.Linkstage.advance st ~until:(Float.pred tx);
  check_chunk st "before the finish" ~events:0 ~times:[] ~tags:[];
  (* The upstream output of a chunk is consumed in full: the next chunk
     has no new input. *)
  Netsim.Fvec.clear in_t;
  Netsim.Fvec.clear in_tag;
  Netsim.Linkstage.advance st ~until:tx;
  check_chunk st "until = finish" ~events:1 ~times:[ tx ] ~tags:[ 0.0 ];
  let p = 0.002 in
  let st, in_t, in_tag = stage ~propagation:p [ 0.0 ] in
  Netsim.Linkstage.advance st ~until:tx;
  check_chunk st "until = finish, propagation" ~events:1 ~times:[] ~tags:[];
  Netsim.Fvec.clear in_t;
  Netsim.Fvec.clear in_tag;
  Netsim.Linkstage.advance st ~until:(tx +. p);
  check_chunk st "until = delivery" ~events:1 ~times:[ tx +. p ] ~tags:[ 0.0 ];
  Alcotest.(check int) "one enqueue" 1 (Netsim.Linkstage.enqueued st);
  Alcotest.(check int) "queue high-water mark" 1
    (Netsim.Linkstage.queue_hwm st)

(* --- the differential suite --- *)

let hop ?(bw = 1_000_000.0) ?(prop = 0.0) ?qlimit ?cross () =
  {
    Netsim.Topology.bandwidth_bps = bw;
    propagation = prop;
    queue_limit = qlimit;
    cross;
  }

let poisson_cross rate_pps =
  { Netsim.Topology.rate_pps; size_bytes = 400; burst = `Poisson }

let onoff_cross =
  {
    Netsim.Topology.rate_pps = 100.0;
    size_bytes = 400;
    burst = `On_off (0.1, 0.4, None);
  }

(* Every eligible configuration shape: CIT and all VIT laws, all jitter
   models, no hops / loaded chain / mid-chain tap / propagation /
   queue-limit drops.  Each one runs on the kernel, traced or not, so
   every differential check below compares the two engines. *)
let eligible_configs =
  let base = System.default_config in
  [
    ("cit_nohops", base);
    ( "cit_fast_jitterless",
      {
        base with
        timer = Padding.Timer.Constant 0.002;
        jitter = Padding.Jitter.none;
        payload_rate_pps = 300.0;
      } );
    ( "vit_normal",
      {
        base with
        timer = Padding.Timer.Normal { mean = 0.010; sigma = 0.002 };
        jitter = Padding.Jitter.parametric ~mu:5e-5 ~sigma:8e-6;
      } );
    ( "vit_uniform",
      {
        base with
        timer = Padding.Timer.Uniform { mean = 0.010; half_width = 0.004 };
      } );
    ( "vit_exponential",
      { base with timer = Padding.Timer.Exponential { mean = 0.012 } } );
    ( "chain_loaded",
      {
        base with
        hops =
          [|
            hop ();
            hop ~prop:0.002 ~cross:(poisson_cross 150.0) ();
            hop ~bw:400_000.0 ~qlimit:3 ~cross:(poisson_cross 200.0) ();
          |];
        tap_position = 3;
      } );
    ( "chain_midtap",
      {
        base with
        hops =
          [|
            hop ~cross:(poisson_cross 120.0) ();
            hop ~bw:1_200_000.0 ();
            hop ~bw:1_500_000.0 ();
          |];
        tap_position = 1;
      } );
  ]

(* [chain_midtap] with equal downstream bandwidths: back-to-back packets
   finish one hop exactly when the next arrives, a link-stage tie. *)
let chain_equal_bw =
  {
    System.default_config with
    hops = [| hop ~cross:(poisson_cross 120.0) (); hop (); hop () |];
    tap_position = 1;
  }

let filtered_snapshot () =
  (* The event-queue-depth gauge has a documented deterministic surrogate
     on the kernel path, and the kernel.* counters record which path ran
     — everything else must match exactly. *)
  Obs.Metrics.snapshot ()
  |> List.filter (fun (name, _) ->
         name <> "desim.queue_hwm"
         && not
              (String.length name >= 12
              && String.sub name 0 12 = "desim.kernel"))

let snapshot_str () =
  Format.asprintf "%a" Obs.Metrics.Snapshot.pp (filtered_snapshot ())

let kernel_runs () =
  Obs.Metrics.Snapshot.counter_value (Obs.Metrics.snapshot ())
    "desim.kernel.runs"

let fallbacks reason =
  Obs.Metrics.Snapshot.counter_value (Obs.Metrics.snapshot ())
    ("desim.kernel.fallbacks{reason=" ^ reason ^ "}")

(* One run of [cfg] on the chosen engine: its result, filtered metric
   totals, [desim.kernel.runs] and, when [traced], the ta-trace/1 bytes. *)
let run_on ~kernel ~traced cfg =
  let path = Filename.temp_file "kernel_trace" ".jsonl" in
  Obs.Metrics.reset ();
  if traced then Obs.Trace.enable ~path;
  let r =
    Fun.protect
      ~finally:(fun () -> Obs.Trace.disable ())
      (fun () ->
        let r =
          with_kernel kernel (fun () ->
              System.run cfg ~piats:400)
        in
        Obs.Trace.flush ();
        r)
  in
  let body = read_file path in
  Sys.remove path;
  (r, snapshot_str (), kernel_runs (), body)

let check_results_equal name (rk : System.result) (re : System.result) =
  (* compare, not (=): mean latency can legitimately be computed from
     zero samples in degenerate configs, and nan <> nan under (=). *)
  if Stdlib.compare rk re <> 0 then
    Alcotest.failf "%s: kernel and event-loop results differ" name

(* Every eligible config on both engines: the kernel must have run, and
   results, metric totals and trace bytes must match.  Traced, the trace
   holds the same events in the same order, with the same timestamps. *)
let differential ~traced () =
  List.iter
    (fun (name, cfg) ->
      let rk, sk, kruns, tk = run_on ~kernel:true ~traced cfg in
      let re, se, _, te = run_on ~kernel:false ~traced cfg in
      check_results_equal name rk re;
      Alcotest.(check string) (name ^ ": metric totals") se sk;
      Alcotest.(check int) (name ^ ": kernel ran") 1 kruns;
      Alcotest.(check string) (name ^ ": trace bytes") te tk;
      if traced && String.length tk < 10_000 then
        Alcotest.failf "%s: trivial trace" name)
    eligible_configs

let test_differential_sharded_jobs () =
  (* Windowed collection shards one logical PIAT budget into independent
     runs: byte-identical between paths at jobs 1, 2 and 8. *)
  let base = List.assoc "chain_loaded" eligible_configs in
  let plan =
    Scenarios.Workload.window_plan ~sample_size:40 ~windows_per_shard:4
      ~min_windows:4 ~max_windows:32 ()
  in
  let run kernel jobs =
    Obs.Metrics.reset ();
    with_kernel kernel (fun () ->
        with_jobs jobs (fun () ->
            Scenarios.Workload.collect_windowed ~base ~plan
              ~features:Adversary.Feature.standard_set))
  in
  let reference = run false 1 in
  List.iter
    (fun jobs ->
      List.iter
        (fun kernel ->
          let r = run kernel jobs in
          if kernel && kernel_runs () = 0 then
            Alcotest.failf "jobs=%d: no shard ran on the kernel" jobs;
          if Stdlib.compare reference r <> 0 then
            Alcotest.failf "kernel=%b jobs=%d differs from evloop jobs=1"
              kernel jobs)
        [ true; false ])
    [ 1; 2; 8 ]

let test_fallback_reasons () =
  (* Ineligible shapes and kernel ties must take the event loop and say
     why. *)
  let tie, _, tie_runs, _ = run_on ~kernel:true ~traced:false chain_equal_bw in
  Alcotest.(check int) "tie fallback" 1 (fallbacks "tie");
  Alcotest.(check int) "tie: no kernel run" 0 tie_runs;
  let evloop, _, _, _ = run_on ~kernel:false ~traced:false chain_equal_bw in
  check_results_equal "tie" tie evloop;
  Obs.Metrics.reset ();
  let cbr = { System.default_config with payload_model = System.Cbr_payload } in
  ignore (with_kernel true (fun () -> System.run cbr ~piats:50) : System.result);
  Alcotest.(check int) "cbr fallback" 1 (fallbacks "cbr_payload");
  Obs.Metrics.reset ();
  let onoff =
    {
      System.default_config with
      hops = [| hop ~cross:onoff_cross () |];
      tap_position = 1;
    }
  in
  ignore
    (with_kernel true (fun () -> System.run onoff ~piats:50) : System.result);
  Alcotest.(check int) "on/off fallback" 1 (fallbacks "onoff_cross");
  Obs.Metrics.reset ();
  ignore
    (with_kernel false (fun () -> System.run System.default_config ~piats:50)
      : System.result);
  Alcotest.(check int) "disabled fallback" 1 (fallbacks "disabled");
  Alcotest.(check int) "no kernel runs" 0 (kernel_runs ())

(* --- bad configs: both engines reject them the same way ---

   One parameter at a time set to NaN, 0 or a negative value, on a
   one-hop chain with the tap after the hop.  The owning module's check
   must raise, with its own message, on the kernel path and on the event
   loop alike, before the first timer fire. *)

let bad_configs =
  let base =
    { System.default_config with hops = [| hop () |]; tap_position = 1 }
  in
  let with_hop h = { base with hops = [| h |] } in
  let cross ?(rate = 100.0) ?(size = 400) () =
    { Netsim.Topology.rate_pps = rate; size_bytes = size; burst = `Poisson }
  in
  let floats = [ ("nan", Float.nan); ("0", 0.0); ("negative", -1.0) ] in
  let each label values msg make =
    List.map (fun (v, x) -> (label ^ " " ^ v, msg, make x)) values
  in
  List.concat
    [
      each "Timer.Constant" floats "Timer: constant period <= 0" (fun x ->
          { base with timer = Padding.Timer.Constant x });
      each "payload rate" floats "System: payload_rate <= 0" (fun x ->
          { base with payload_rate_pps = x });
      each "payload rate" [ ("inf", infinity) ]
        "System: payload_rate not finite" (fun x ->
          { base with payload_rate_pps = x });
      each "hop bandwidth_bps" floats "Link.create: bandwidth <= 0" (fun x ->
          with_hop (hop ~bw:x ()));
      each "hop propagation"
        [ ("nan", Float.nan); ("negative", -0.001) ]
        "Link.create: propagation < 0"
        (fun x -> with_hop (hop ~prop:x ()));
      each "cross rate_pps" floats "Topology.chain: cross rate_pps <= 0"
        (fun x -> with_hop (hop ~cross:(cross ~rate:x ()) ()));
      each "cross rate_pps" [ ("inf", infinity) ]
        "Topology.chain: cross rate_pps not finite" (fun x ->
          with_hop (hop ~cross:(cross ~rate:x ()) ()));
      each "cross size_bytes"
        [ ("0", 0); ("negative", -400) ]
        "Topology.chain: cross size_bytes <= 0"
        (fun n -> with_hop (hop ~cross:(cross ~size:n ()) ()));
    ]

let test_bad_configs_agree () =
  List.iter
    (fun (name, msg, cfg) ->
      List.iter
        (fun kernel ->
          Obs.Metrics.reset ();
          let name = name ^ if kernel then ", kernel" else ", event loop" in
          Alcotest.check_raises name (Invalid_argument msg) (fun () ->
              with_kernel kernel (fun () ->
                  ignore (System.run cfg ~piats:50)));
          Alcotest.(check int) (name ^ ": no timer fire") 0
            (Obs.Metrics.Snapshot.counter_value (Obs.Metrics.snapshot ())
               "padding.gateway.fires"))
        [ true; false ])
    bad_configs

let test_checkpoint_resume_mixed_paths () =
  (* Kill-resume through Sweep.mapi: half the points journaled by a
     kernel-path run, the rest computed after resume by an event-loop
     process (and vice versa) must reproduce the uninterrupted tables. *)
  let module Sweep = Scenarios.Sweep in
  let points = [ 0; 1; 2; 3 ] in
  let task ~attempt:_ i x =
    let cfg =
      {
        (List.assoc "chain_loaded" eligible_configs) with
        seed = 100 + (7 * x);
      }
    in
    let r = System.run cfg ~piats:200 in
    (i, r.System.piats, r.System.overhead, r.System.mean_payload_latency)
  in
  let with_temp_dir f =
    let dir = Filename.temp_file "ta_kernel_ckpt" "" in
    Sys.remove dir;
    Sys.mkdir dir 0o700;
    Fun.protect
      ~finally:(fun () ->
        if Sys.file_exists dir then begin
          Array.iter
            (fun name -> Sys.remove (Filename.concat dir name))
            (Sys.readdir dir);
          Sys.rmdir dir
        end)
      (fun () -> f dir)
  in
  let reset_sweep () =
    Sweep.set_checkpoint_dir None;
    Sweep.clear_failures ()
  in
  Fun.protect ~finally:reset_sweep @@ fun () ->
  let uninterrupted =
    reset_sweep ();
    with_kernel true (fun () ->
        Sweep.ok_values
          (Sweep.mapi ~sweep:"kernel.ckpt" ~digest:"d" ~seed:1 ~task points))
  in
  List.iter
    (fun (first_kernel, resume_kernel) ->
      with_temp_dir (fun dir ->
          reset_sweep ();
          Sweep.set_checkpoint_dir (Some dir);
          (* First process journals only the first two points ("killed"
             after a partial run). *)
          let _partial =
            with_kernel first_kernel (fun () ->
                Sweep.mapi ~sweep:"kernel.ckpt" ~digest:"d" ~seed:1 ~task
                  [ 0; 1 ])
          in
          (* Second process resumes the full sweep on the other path:
             journaled points replay, missing ones compute fresh. *)
          let resumed =
            with_kernel resume_kernel (fun () ->
                Sweep.ok_values
                  (Sweep.mapi ~sweep:"kernel.ckpt" ~digest:"d" ~seed:1 ~task
                     points))
          in
          if Stdlib.compare uninterrupted resumed <> 0 then
            Alcotest.failf
              "resume (first=%b resume=%b) differs from uninterrupted run"
              first_kernel resume_kernel))
    [ (true, false); (false, true) ]

(* --- the allocation-free draws against the scalar draws they replace ---

   Reference code: the samplers, [Timer.draw] and [Jitter.latency_at] as
   they were before the draws wrote into a slot, minus their parameter
   checks (every generated parameter is valid).  Each draws through the
   boxed [Rng.float_range] / [Rng.float_pos] and returns its float. *)
module Oracle = struct
  let rec standard_normal rng =
    let u = Prng.Rng.float_range rng ~lo:(-1.0) ~hi:1.0 in
    let v = Prng.Rng.float_range rng ~lo:(-1.0) ~hi:1.0 in
    let s = (u *. u) +. (v *. v) in
    if s >= 1.0 || s = 0.0 then standard_normal rng
    else u *. sqrt (-2.0 *. log s /. s)

  let normal rng ~mu ~sigma =
    if sigma = 0.0 then mu else mu +. (sigma *. standard_normal rng)

  let rec truncated_draw rng ~mu ~sigma attempts =
    if attempts > 10_000 then mu
    else
      let x = normal rng ~mu ~sigma in
      if x > 0.0 then x else truncated_draw rng ~mu ~sigma (attempts + 1)

  let truncated_normal_pos rng ~mu ~sigma =
    if sigma = 0.0 then mu else truncated_draw rng ~mu ~sigma 0

  let uniform rng ~lo ~hi = Prng.Rng.float_range rng ~lo ~hi
  let exponential rng ~rate = -.log (Prng.Rng.float_pos rng) /. rate

  let timer_draw law rng =
    match law with
    | Padding.Timer.Constant tau -> tau
    | Padding.Timer.Normal { mean; sigma } ->
        if sigma = 0.0 then mean else truncated_normal_pos rng ~mu:mean ~sigma
    | Padding.Timer.Uniform { mean; half_width } ->
        uniform rng ~lo:(mean -. half_width) ~hi:(mean +. half_width)
    | Padding.Timer.Exponential { mean } -> exponential rng ~rate:(1.0 /. mean)

  type jitter =
    | None_
    | Parametric of float * float
    | Mechanistic of float * float * float * float * float

  let rec irq_sum rng ~rate k acc =
    if k <= 0 then acc
    else irq_sum rng ~rate (k - 1) (acc +. exponential rng ~rate)

  let latency_at t rng ~sends_payload ~arrivals_in_window =
    match t with
    | None_ -> 0.0
    | Parametric (mu, sigma) -> Float.max 0.0 (normal rng ~mu ~sigma)
    | Mechanistic (cs_mu, cs_sigma, px_mu, px_sigma, irq_delay_mean) ->
        let base = normal rng ~mu:cs_mu ~sigma:cs_sigma in
        let path =
          if sends_payload then normal rng ~mu:px_mu ~sigma:px_sigma else 0.0
        in
        let blocking =
          if irq_delay_mean > 0.0 then
            irq_sum rng ~rate:(1.0 /. irq_delay_mean) arrivals_in_window 0.0
          else 0.0
        in
        Float.max 0.0 (base +. path +. blocking)

  let live = function
    | None_ -> Padding.Jitter.none
    | Parametric (mu, sigma) -> Padding.Jitter.parametric ~mu ~sigma
    | Mechanistic
        ( context_switch_mu,
          context_switch_sigma,
          payload_extra_mu,
          payload_extra_sigma,
          irq_delay_mean ) ->
        Padding.Jitter.mechanistic ~context_switch_mu ~context_switch_sigma
          ~payload_extra_mu ~payload_extra_sigma ~irq_delay_mean ()
end

let same_bits what a b =
  if not (Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)) then
    QCheck.Test.fail_reportf "%s: %h (reference) vs %h" what a b

(* One slot of a float array, written by a draw and read back. *)
let slot f =
  let buf = Float.Array.make 1 0.0 in
  f buf 0;
  Float.Array.get buf 0

let timer_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun tau -> Padding.Timer.Constant tau) (float_range 1e-4 0.1);
        map
          (fun (mean, ratio) ->
            Padding.Timer.Normal { mean; sigma = mean *. ratio })
          (pair (float_range 1e-4 0.1)
             (oneofl [ 0.0; 1e-3; 0.2; 1.0; 3.0 ]));
        map
          (fun (mean, frac) ->
            Padding.Timer.Uniform { mean; half_width = mean *. frac })
          (pair (float_range 1e-4 0.1) (float_range 0.01 0.99));
        map (fun mean -> Padding.Timer.Exponential { mean }) (float_range 1e-4 0.1);
      ])

let jitter_gen =
  QCheck.Gen.(
    let micro = float_range 0.0 1e-5 in
    oneof
      [
        return Oracle.None_;
        map (fun (mu, sigma) -> Oracle.Parametric (mu, sigma)) (pair micro micro);
        map
          (fun ((a, b), (c, d), e) -> Oracle.Mechanistic (a, b, c, d, e))
          (triple (pair micro micro) (pair micro micro)
             (oneof [ return 0.0; micro ]));
      ])

let fires_gen = QCheck.Gen.(list_size (int_range 1 40) (pair bool (int_range 0 5)))

let prop_draws_bit_identical =
  QCheck.Test.make ~count:500
    ~name:"timer and jitter draws equal the scalar reference, bit for bit"
    (QCheck.make
       QCheck.Gen.(quad (int_range 0 1_000_000) timer_gen jitter_gen fires_gen))
    (fun (seed, law, jitter, fires) ->
      let ra = Prng.Rng.create ~seed and rb = Prng.Rng.create ~seed in
      let timer = Padding.Timer.sampler law and live = Oracle.live jitter in
      List.iter
        (fun (sends_payload, arrivals_in_window) ->
          same_bits "timer draw"
            (Oracle.timer_draw law ra)
            (slot (Padding.Timer.draw_into timer rb));
          same_bits "jitter draw"
            (Oracle.latency_at jitter ra ~sends_payload ~arrivals_in_window)
            (slot
               (Padding.Jitter.latency_into live rb ~sends_payload
                  ~arrivals_in_window)))
        fires;
      Int64.equal (Prng.Rng.bits64 ra) (Prng.Rng.bits64 rb))

let prop_samplers_bit_identical =
  QCheck.Test.make ~count:500
    ~name:"Sampler draws equal the scalar reference, bit for bit"
    (QCheck.make
       QCheck.Gen.(
         triple (int_range 0 1_000_000) (float_range (-5.0) 5.0)
           (oneof [ return 0.0; float_range 0.0 5.0 ])))
    (fun (seed, mu, sigma) ->
      let ra = Prng.Rng.create ~seed and rb = Prng.Rng.create ~seed in
      let pos = Float.abs mu +. 1e-3 in
      for _ = 1 to 20 do
        same_bits "normal" (Oracle.normal ra ~mu ~sigma)
          (Prng.Sampler.normal rb ~mu ~sigma);
        same_bits "normal_into" (Oracle.normal ra ~mu ~sigma)
          (slot (Prng.Sampler.normal_into rb ~mu ~sigma));
        same_bits "truncated_normal_pos_into"
          (Oracle.truncated_normal_pos ra ~mu:pos ~sigma)
          (slot (Prng.Sampler.truncated_normal_pos_into rb ~mu:pos ~sigma));
        same_bits "uniform_into"
          (Oracle.uniform ra ~lo:(mu -. sigma) ~hi:(mu +. sigma))
          (slot (Prng.Sampler.uniform_into rb ~lo:(mu -. sigma) ~hi:(mu +. sigma)));
        same_bits "exponential" (Oracle.exponential ra ~rate:pos)
          (Prng.Sampler.exponential rb ~rate:pos);
        same_bits "exponential_into" (Oracle.exponential ra ~rate:pos)
          (slot (Prng.Sampler.exponential_into rb ~rate:pos))
      done;
      Int64.equal (Prng.Rng.bits64 ra) (Prng.Rng.bits64 rb))

let test_alloc_rng_int () =
  (* The rejection loop keeps its int64 bound and limit in locals: the
     [Fleet.Mux] arrival path's class pick allocates nothing. *)
  let rng = Prng.Rng.create ~seed:5 in
  let words =
    minor_words_per_call
      (fun bound ->
        for _ = 1 to 1000 do
          ignore (Sys.opaque_identity (Prng.Rng.int rng ~bound))
        done)
      [ 1; 7; 1_000; 1 lsl 40; max_int ]
  in
  if words > 0.0 then
    Alcotest.failf "Rng.int: %g words per draw (want 0)" (words /. 5000.0)

let test_alloc_system_run_major () =
  (* A gateway-only System.run allocates two PIAT-length arrays directly
     in the major heap, the timestamps and the PIATs, on either engine:
     the arena's buffers have grown in a first run of the same size. *)
  let piats = 20_000 in
  let cfg = System.default_config in
  let direct_major () =
    Gc.minor ();
    let _, promoted, major = Gc.counters () in
    major -. promoted
  in
  List.iter
    (fun kernel ->
      with_kernel kernel (fun () ->
          ignore (System.run cfg ~piats : System.result);
          let before = direct_major () in
          let r = System.run cfg ~piats in
          let words = direct_major () -. before in
          Alcotest.(check int) "PIATs" piats (Array.length r.System.piats);
          let ceiling = float_of_int ((2 * piats) + 64) in
          if words > ceiling then
            Alcotest.failf "System.run (%s): %g words in the major heap \
                            (%.2f per PIAT, want <= 2 per PIAT + 64)"
              (if kernel then "kernel" else "event loop")
              words
              (words /. float_of_int piats)))
    [ true; false ]

let suite =
  [
    Alcotest.test_case "exponential_fill bit-equality" `Quick
      test_exponential_fill_bit_equality;
    Alcotest.test_case "exponential_fill partial fill" `Quick
      test_exponential_fill_partial;
    Alcotest.test_case "exponential_fill invalid args" `Quick
      test_exponential_fill_invalid;
    Alcotest.test_case "allocation: exponential_fill 0 words/draw" `Quick
      test_alloc_exponential_fill;
    Alcotest.test_case "allocation: Linkstage.advance 0 words/enqueue" `Quick
      test_alloc_linkstage;
    Alcotest.test_case "allocation: Kernel.advance per-fire ceiling" `Quick
      test_alloc_kernel;
    Alcotest.test_case "differential: results + metrics" `Quick
      (differential ~traced:false);
    Alcotest.test_case "differential: trace bytes" `Quick
      (differential ~traced:true);
    Alcotest.test_case "differential: sharded at jobs 1/2/8" `Quick
      test_differential_sharded_jobs;
    Alcotest.test_case "fallback reasons counted" `Quick test_fallback_reasons;
    Alcotest.test_case "checkpoint resume across paths" `Quick
      test_checkpoint_resume_mixed_paths;
    Alcotest.test_case "bad configs: same Invalid_argument on both engines"
      `Quick test_bad_configs_agree;
    Alcotest.test_case "allocation: scoring per classified point" `Quick
      test_alloc_scoring;
    Alcotest.test_case "link stage: every tie raises, one ulp later runs"
      `Quick test_linkstage_ties;
    Alcotest.test_case "link stage: chunk ending at a finish" `Quick
      test_linkstage_chunk_at_finish;
    Alcotest.test_case "allocation: Entropy.of_sample_in span-free" `Quick
      test_alloc_entropy;
    QCheck_alcotest.to_alcotest prop_draws_bit_identical;
    QCheck_alcotest.to_alcotest prop_samplers_bit_identical;
    Alcotest.test_case "allocation: Rng.int 0 words/draw" `Quick
      test_alloc_rng_int;
    Alcotest.test_case "allocation: System.run two arrays per run" `Quick
      test_alloc_system_run_major;
  ]
