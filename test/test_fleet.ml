(* Fleet layer: the SoA flow table's merge algebra, the mux's
   conservation laws (every accepted arrival lands in exactly one flow
   row; the Obs counters agree with the returned totals), bit-identity
   of the fleet sweep at any worker count — including a kill-resume
   through the ta-ckpt/1 journal — and a 10^6-flow smoke test with a
   steady-state allocation ceiling on the table's hot path. *)

module FT = Flow_table
module Sweep = Scenarios.Sweep

let null_fmt = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())

(* --- Flow_table basics --- *)

let test_table_create_and_bounds () =
  let t = FT.create ~lo:10 ~flows:5 () in
  Alcotest.(check int) "lo" 10 (FT.lo t);
  Alcotest.(check int) "width" 5 (FT.width t);
  Alcotest.(check int) "hi" 15 (FT.hi t);
  Alcotest.check_raises "flows < 1"
    (Invalid_argument "Flow_table.create: flows < 1") (fun () ->
      ignore (FT.create ~flows:0 ()));
  Alcotest.check_raises "lo < 0" (Invalid_argument "Flow_table.create: lo < 0")
    (fun () -> ignore (FT.create ~lo:(-1) ~flows:1 ()));
  Alcotest.check_raises "flow below window"
    (Invalid_argument "Flow_table: flow 9 outside [10, 15)") (fun () ->
      FT.record t ~flow:9 ~bytes:1 ~now:0.0);
  Alcotest.check_raises "flow above window"
    (Invalid_argument "Flow_table: flow 15 outside [10, 15)") (fun () ->
      ignore (FT.packets t ~flow:15))

let test_table_record () =
  let t = FT.create ~flows:4 () in
  Alcotest.(check (float 0.0)) "virgin last_activity" Float.neg_infinity
    (FT.last_activity t ~flow:2);
  FT.record t ~flow:2 ~bytes:500 ~now:1.5;
  FT.record t ~flow:2 ~bytes:300 ~now:2.5;
  Alcotest.(check (float 0.0)) "packets" 2.0 (FT.packets t ~flow:2);
  Alcotest.(check (float 0.0)) "bytes" 800.0 (FT.bytes t ~flow:2);
  Alcotest.(check (float 0.0)) "last_activity tracks records" 2.5
    (FT.last_activity t ~flow:2);
  FT.spread_dummies t ~count:4;
  Alcotest.(check (float 0.0)) "dummies do not touch last_activity"
    Float.neg_infinity
    (FT.last_activity t ~flow:3);
  Alcotest.(check int) "active since 2.0" 1 (FT.active t ~since:2.0);
  Alcotest.(check int) "active since 3.0" 0 (FT.active t ~since:3.0)

let test_table_spread_dummies () =
  let t = FT.create ~lo:3 ~flows:5 () in
  (* 12 = 2 * 5 + 2: every flow gets 2, the remainder lands on the two
     lowest ids. *)
  FT.spread_dummies t ~count:12;
  Alcotest.(check (list (float 0.0)))
    "quotient everywhere, remainder on the lowest ids"
    [ 3.0; 3.0; 2.0; 2.0; 2.0 ]
    (List.init 5 (fun i -> FT.dummies t ~flow:(3 + i)));
  Alcotest.(check (float 0.0)) "total conserved" 12.0 (FT.total_dummies t);
  Alcotest.check_raises "negative count"
    (Invalid_argument "Flow_table.spread_dummies: count < 0") (fun () ->
      FT.spread_dummies t ~count:(-1))

(* A merged snapshot is a fresh table: recording into a shard after the
   merge does not reach it. *)
let test_table_snapshot_isolated () =
  let t = FT.create ~flows:2 () in
  FT.record t ~flow:0 ~bytes:100 ~now:1.0;
  let s = FT.merge t (FT.create ~flows:2 ()) in
  FT.record t ~flow:0 ~bytes:100 ~now:2.0;
  Alcotest.(check (float 0.0)) "snapshot frozen" 1.0 (FT.packets s ~flow:0);
  Alcotest.(check (float 0.0)) "live table moved on" 2.0 (FT.packets t ~flow:0)

(* --- merge algebra --- *)

(* A random table over a random window inside [0, 40), as a QCheck
   generator: (lo, width, ops) where each op touches one flow. *)
let table_of_spec (lo, width, ops) =
  let t = FT.create ~lo ~flows:width () in
  List.iter
    (fun (off, kind, v) ->
      let flow = lo + (off mod width) in
      match kind mod 3 with
      | 0 -> FT.record t ~flow ~bytes:(1 + (v mod 1000)) ~now:(float_of_int v)
      | 1 -> FT.spread_dummies t ~count:(v mod 7)
      | _ -> FT.set_class t ~flow (v mod 256))
    ops;
  t

let spec_gen =
  QCheck.Gen.(
    triple (int_range 0 20) (int_range 1 20)
      (list_size (int_range 0 30)
         (triple (int_range 0 19) (int_range 0 2) (int_range 0 5000))))

let spec_arb = QCheck.make ~print:(fun _ -> "<table spec>") spec_gen

let tables_equal a b =
  FT.lo a = FT.lo b
  && FT.width a = FT.width b
  && List.for_all
       (fun flow ->
         FT.packets a ~flow = FT.packets b ~flow
         && FT.bytes a ~flow = FT.bytes b ~flow
         && FT.dummies a ~flow = FT.dummies b ~flow
         && FT.last_activity a ~flow = FT.last_activity b ~flow
         && FT.rate_class a ~flow = FT.rate_class b ~flow)
       (List.init (FT.width a) (fun i -> FT.lo a + i))

let prop_merge_commutative =
  QCheck.Test.make ~name:"merge commutative" ~count:200
    (QCheck.pair spec_arb spec_arb)
    (fun (sa, sb) ->
      let a = table_of_spec sa and b = table_of_spec sb in
      tables_equal (FT.merge a b) (FT.merge b a))

let prop_merge_associative =
  QCheck.Test.make ~name:"merge associative" ~count:200
    (QCheck.triple spec_arb spec_arb spec_arb)
    (fun (sa, sb, sc) ->
      let a = table_of_spec sa
      and b = table_of_spec sb
      and c = table_of_spec sc in
      tables_equal
        (FT.merge (FT.merge a b) c)
        (FT.merge a (FT.merge b c)))

let prop_merge_order_independent =
  (* Any permutation folded left gives the same table — the exact
     property Mux.run's shard fold relies on. *)
  QCheck.Test.make ~name:"merge order-independent" ~count:100
    (QCheck.list_of_size (QCheck.Gen.int_range 1 5) spec_arb)
    (fun specs ->
      let fold ts =
        match List.map table_of_spec ts with
        | [] -> assert false
        | t :: rest -> List.fold_left FT.merge t rest
      in
      tables_equal (fold specs) (fold (List.rev specs)))

let test_merge_disjoint_windows () =
  let a = FT.create ~lo:0 ~flows:2 () in
  let b = FT.create ~lo:5 ~flows:2 () in
  FT.record a ~flow:1 ~bytes:10 ~now:1.0;
  FT.record b ~flow:6 ~bytes:20 ~now:2.0;
  let m = FT.merge a b in
  Alcotest.(check (pair int int)) "union window" (0, 7) (FT.lo m, FT.hi m);
  Alcotest.(check (float 0.0)) "left counts kept" 1.0 (FT.packets m ~flow:1);
  Alcotest.(check (float 0.0)) "right counts kept" 1.0 (FT.packets m ~flow:6);
  Alcotest.(check (float 0.0)) "gap flows zero" 0.0 (FT.packets m ~flow:3);
  Alcotest.(check (float 0.0)) "gap flows inactive" Float.neg_infinity
    (FT.last_activity m ~flow:3)

(* --- Mux conservation --- *)

let small_cfg =
  { Mux.default_config with flows = 120; gateways = 4; duration = 1.0 }

let test_mux_conservation () =
  let r = Mux.run small_cfg in
  Alcotest.(check int) "merged table covers the whole fleet" 120
    (FT.width r.Mux.table);
  (* Every accepted arrival was demuxed into exactly one flow row. *)
  Alcotest.(check (float 0.0)) "arrivals == table packet total"
    (float_of_int r.Mux.arrivals)
    (FT.total_packets r.Mux.table);
  Alcotest.(check (float 0.0)) "bytes = packets * packet_size"
    (float_of_int (r.Mux.arrivals * small_cfg.Mux.packet_size))
    (FT.total_bytes r.Mux.table);
  Alcotest.(check (float 0.0)) "link dummies amortized exactly"
    (float_of_int r.Mux.dummy_sent)
    (FT.total_dummies r.Mux.table);
  (* The gateway can only send or drop what arrived (plus dummies). *)
  Alcotest.(check bool) "sent + dropped <= arrivals" true
    (r.Mux.payload_sent + r.Mux.payload_dropped <= r.Mux.arrivals);
  Alcotest.(check bool) "delivered <= sent" true
    (r.Mux.payload_delivered <= r.Mux.payload_sent);
  Alcotest.(check bool) "some traffic flowed" true (r.Mux.arrivals > 0)

let test_mux_obs_counters_reconcile () =
  (* The process-global Obs counters are cumulative; the run's
     contribution is the delta, and it must equal the returned totals —
     including the per-class label family summing to the whole. *)
  let read name =
    Obs.Metrics.counter_value (Obs.Metrics.counter name)
  in
  let read_class label =
    Obs.Metrics.counter_value
      (Obs.Metrics.counter_labeled "fleet.mux.class_arrivals"
         ~label:("class", label))
  in
  let a0 = read "fleet.mux.arrivals" and d0 = read "fleet.mux.dummies" in
  let c0 = read_class "10pps" and c1 = read_class "40pps" in
  let r = Mux.run small_cfg in
  Alcotest.(check int) "arrivals counter delta"
    r.Mux.arrivals
    (read "fleet.mux.arrivals" - a0);
  Alcotest.(check int) "dummies counter delta"
    r.Mux.dummy_sent
    (read "fleet.mux.dummies" - d0);
  Alcotest.(check int) "class family sums to the whole"
    r.Mux.arrivals
    (read_class "10pps" - c0 + (read_class "40pps" - c1))

let test_mux_deterministic_any_jobs () =
  let fingerprint (r : Mux.result) =
    ( r.Mux.arrivals,
      r.Mux.payload_sent,
      r.Mux.dummy_sent,
      r.Mux.payload_delivered,
      r.Mux.mean_payload_latency,
      List.init 120 (fun flow ->
          ( FT.packets r.Mux.table ~flow,
            FT.dummies r.Mux.table ~flow,
            FT.last_activity r.Mux.table ~flow )) )
  in
  let at jobs = Exec.Pool.with_jobs jobs (fun () -> Mux.run small_cfg) in
  let base = fingerprint (at 1) in
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d bit-identical" jobs)
        true
        (fingerprint (at jobs) = base))
    [ 2; 8 ]

let test_mux_class_partition () =
  (* Class ranges partition the fleet and shard slices respect them:
     every flow's recorded class matches class_of_flow. *)
  let cfg = { small_cfg with Mux.flows = 97; gateways = 5 } in
  let r = Mux.run cfg in
  for flow = 0 to 96 do
    Alcotest.(check int)
      (Printf.sprintf "class of flow %d" flow)
      (Mux.class_of_flow cfg flow)
      (FT.rate_class r.Mux.table ~flow)
  done;
  (* Shard ranges tile [0, flows) without gaps or overlap. *)
  let covered = Array.make 97 0 in
  for g = 0 to 4 do
    let lo, hi = Mux.shard_range cfg ~gateway:g in
    for f = lo to hi - 1 do
      covered.(f) <- covered.(f) + 1
    done
  done;
  Alcotest.(check bool) "shards tile the fleet exactly once" true
    (Array.for_all (fun c -> c = 1) covered)

let test_mux_validate () =
  let bad f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "flows < 1" true
    (bad (fun () -> Mux.validate { small_cfg with Mux.flows = 0 }));
  Alcotest.(check bool) "gateways > flows" true
    (bad (fun () -> Mux.validate { small_cfg with Mux.gateways = 121 }));
  Alcotest.(check bool) "fractions must sum to 1" true
    (bad (fun () ->
         Mux.validate
           {
             small_cfg with
             Mux.classes =
               [| { Mux.label = "x"; rate_pps = 1.0; fraction = 0.7 } |];
           }));
  Alcotest.(check bool) "negative duration" true
    (bad (fun () -> Mux.validate { small_cfg with Mux.duration = -1.0 }))

(* --- fleet sweep: bit-identity at any jobs, incl. kill-resume --- *)

let with_defaults f =
  let reset () =
    Sweep.set_checkpoint_dir None;
    Sweep.set_retries 2;
    Sweep.set_strict false;
    Sweep.set_event_budget None;
    Sweep.clear_injections ();
    Sweep.clear_failures ()
  in
  reset ();
  Fun.protect ~finally:reset f

let with_temp_dir f =
  let dir = Filename.temp_file "ta_fleet" "" in
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

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path contents =
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc contents)

(* The sweep at toy size; the rendered table (printed through a string
   formatter) is the byte-level observable the CI gate compares. *)
let render_sweep ~jobs ~csv_dir =
  Exec.Pool.with_jobs jobs (fun () ->
      let buf = Buffer.create 1024 in
      let fmt = Format.formatter_of_buffer buf in
      let points =
        Scenarios.Fleet.run ~scale:0.1 ~seed:77 ?csv_dir
          ~flow_counts:[ 300; 900 ] ~gateways:3 ~probes:3 ~duration:0.4 fmt
      in
      Format.pp_print_flush fmt ();
      (Buffer.contents buf, points))

let test_sweep_bit_identity_jobs () =
  with_defaults @@ fun () ->
  let base, points = render_sweep ~jobs:1 ~csv_dir:None in
  Alcotest.(check int) "both points ok" 2 (List.length points);
  List.iter
    (fun jobs ->
      let out, _ = render_sweep ~jobs ~csv_dir:None in
      Alcotest.(check string)
        (Printf.sprintf "table bytes identical at jobs=%d" jobs)
        base out)
    [ 2; 8 ]

let test_sweep_kill_resume () =
  with_defaults @@ fun () ->
  with_temp_dir @@ fun dir ->
  (* Uninterrupted checkpointed run: the ground truth bytes. *)
  Sweep.set_checkpoint_dir (Some dir);
  let full, _ = render_sweep ~jobs:1 ~csv_dir:None in
  let journal = Filename.concat dir "fleet.ckpt" in
  Alcotest.(check bool) "journal written" true (Sys.file_exists journal);
  (* Chop the journal to header + 1 record — the state a SIGKILL after
     one completed point leaves behind — and resume at other worker
     counts. *)
  (match String.split_on_char '\n' (read_file journal) with
  | header :: records ->
      let kept = List.filteri (fun i _ -> i < 1) records in
      write_file journal (String.concat "\n" (header :: kept) ^ "\n")
  | [] -> Alcotest.fail "journal should not be empty");
  List.iter
    (fun jobs ->
      (* Rewind to the truncated journal before each resume. *)
      let truncated = read_file journal in
      let out, _ = render_sweep ~jobs ~csv_dir:None in
      Alcotest.(check string)
        (Printf.sprintf "kill-resume at jobs=%d is byte-identical" jobs)
        full out;
      write_file journal truncated)
    [ 1; 2; 8 ]

(* --- million-flow smoke --- *)

let test_million_flow_smoke () =
  (* A 10^6-flow mux completes in one small table allocation per shard
     and conserves arrivals; kept cheap with a short simulated window. *)
  let cfg =
    { Mux.default_config with Mux.flows = 1_000_000; duration = 0.01 }
  in
  let r = Mux.run cfg in
  Alcotest.(check int) "covers the whole fleet" 1_000_000
    (FT.width r.Mux.table);
  Alcotest.(check (float 0.0)) "conservation at 1M flows"
    (float_of_int r.Mux.arrivals)
    (FT.total_packets r.Mux.table);
  Alcotest.(check bool) "traffic flowed" true (r.Mux.arrivals > 0);
  (* Steady-state allocation ceiling on the hot path: recording into a
     1M-row table allocates nothing per operation (unboxed floatarray
     columns; the budget tolerates boxing at the call boundary). *)
  let t = r.Mux.table in
  let iters = 100_000 in
  let tick i =
    FT.record t ~flow:(i * 7919 mod 1_000_000) ~bytes:500 ~now:1.0
  in
  tick 0;
  (* warm the minor heap path *)
  let w0 = Gc.minor_words () in
  for i = 1 to iters do
    tick i
  done;
  let per_op = (Gc.minor_words () -. w0) /. float_of_int iters in
  if per_op > 8.0 then
    Alcotest.failf "steady-state allocation %.2f words/record (want <= 8)"
      per_op

let test_probe_flows_cover_classes () =
  let ids = Scenarios.Fleet.probe_flows ~flows:1000 ~probes:10 in
  Alcotest.(check int) "requested probes" 10 (Array.length ids);
  Alcotest.(check bool) "strictly increasing in-range" true
    (Array.for_all (fun f -> f >= 0 && f < 1000) ids
    && Array.for_all
         (fun i -> ids.(i) < ids.(i + 1))
         (Array.init 9 (fun i -> i)));
  (* Half the probes land in each half of the id space — the two
     calibration classes get proportional coverage. *)
  Alcotest.(check int) "low-class probes" 5
    (Array.length (Array.of_list (List.filter (fun f -> f < 500) (Array.to_list ids))));
  (* Probes clamp to the fleet when it is tiny. *)
  Alcotest.(check int) "clamped to flows" 3
    (Array.length (Scenarios.Fleet.probe_flows ~flows:3 ~probes:10))

let test_sweep_rejects_bad_params () =
  let bad f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "zero flow count" true
    (bad (fun () ->
         Scenarios.Fleet.run ~flow_counts:[ 0 ] null_fmt));
  Alcotest.(check bool) "zero gateways" true
    (bad (fun () -> Scenarios.Fleet.run ~gateways:0 null_fmt));
  Alcotest.(check bool) "zero probes" true
    (bad (fun () -> Scenarios.Fleet.run ~probes:0 null_fmt))

let suite =
  [
    Alcotest.test_case "table create/bounds" `Quick test_table_create_and_bounds;
    Alcotest.test_case "table record" `Quick test_table_record;
    Alcotest.test_case "table spread_dummies" `Quick test_table_spread_dummies;
    Alcotest.test_case "table snapshot isolated" `Quick
      test_table_snapshot_isolated;
    Alcotest.test_case "merge disjoint windows" `Quick
      test_merge_disjoint_windows;
    QCheck_alcotest.to_alcotest prop_merge_commutative;
    QCheck_alcotest.to_alcotest prop_merge_associative;
    QCheck_alcotest.to_alcotest prop_merge_order_independent;
    Alcotest.test_case "mux conservation" `Quick test_mux_conservation;
    Alcotest.test_case "mux obs counters reconcile" `Quick
      test_mux_obs_counters_reconcile;
    Alcotest.test_case "mux deterministic at any jobs" `Quick
      test_mux_deterministic_any_jobs;
    Alcotest.test_case "mux class partition" `Quick test_mux_class_partition;
    Alcotest.test_case "mux validate" `Quick test_mux_validate;
    Alcotest.test_case "sweep bit-identity jobs 1/2/8" `Quick
      test_sweep_bit_identity_jobs;
    Alcotest.test_case "sweep kill-resume" `Quick test_sweep_kill_resume;
    Alcotest.test_case "million-flow smoke" `Slow test_million_flow_smoke;
    Alcotest.test_case "probe flows cover classes" `Quick
      test_probe_flows_cover_classes;
    Alcotest.test_case "sweep rejects bad params" `Quick
      test_sweep_rejects_bad_params;
  ]
