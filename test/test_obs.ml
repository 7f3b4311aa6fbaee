(* Property tests for the observability layer (lib/obs).

   The determinism contract of the whole repo leans on these: metric
   recording is sharded per domain and merged on snapshot, so the merge
   must be associative and commutative — any partition of the same event
   multiset over any number of domains must produce the identical
   snapshot. *)

let reset_all () =
  Obs.Metrics.reset ();
  Obs.Span.reset ()

(* Spawn [k] domains, give domain [d] the work items [d, d+k, d+2k, ...],
   wait for all.  With k = 1 this is the sequential baseline. *)
let record_partitioned ~domains:k ~n record =
  let worker d () =
    let i = ref d in
    while !i < n do
      record !i;
      i := !i + k
    done
  in
  if k <= 1 then worker 0 ()
  else begin
    let others = List.init (k - 1) (fun d -> Domain.spawn (worker (d + 1))) in
    worker 0 ();
    List.iter Domain.join others
  end

let test_counter_merge_partitions () =
  let c = Obs.Metrics.counter "test.obs.merge_counter" in
  let n = 10_000 in
  List.iter
    (fun k ->
      reset_all ();
      record_partitioned ~domains:k ~n (fun i ->
          if i mod 3 = 0 then Obs.Metrics.add c 2 else Obs.Metrics.incr c);
      let expected = (2 * ((n + 2) / 3)) + (n - ((n + 2) / 3)) in
      Alcotest.(check int)
        (Printf.sprintf "counter total identical at %d domains" k)
        expected
        (Obs.Metrics.counter_value c))
    [ 1; 2; 4; 7 ]

let test_histogram_merge_partitions () =
  let h = Obs.Metrics.histogram "test.obs.merge_hist" in
  let g = Obs.Metrics.gauge "test.obs.merge_gauge" in
  let n = 10_000 in
  (* Deterministic value stream independent of the partition. *)
  let value i =
    let rng = Prng.Rng.create ~seed:(1000 + i) in
    Prng.Rng.float_range rng ~lo:1e-7 ~hi:1e6
  in
  let snap_for k =
    reset_all ();
    record_partitioned ~domains:k ~n (fun i ->
        let v = value i in
        Obs.Metrics.observe h v;
        Obs.Metrics.observe_hwm g v);
    Obs.Metrics.Snapshot.filter_prefix "test.obs." (Obs.Metrics.snapshot ())
  in
  let baseline = snap_for 1 in
  (match Obs.Metrics.Snapshot.find baseline "test.obs.merge_hist" with
  | Some (Obs.Metrics.Snapshot.Histogram hist) ->
      Alcotest.(check int) "histogram saw every value" n hist.count
  | _ -> Alcotest.fail "histogram missing from snapshot");
  List.iter
    (fun k ->
      let merged = snap_for k in
      Alcotest.(check bool)
        (Printf.sprintf "snapshot identical at %d domains" k)
        true (baseline = merged))
    [ 2; 4; 7 ]

let test_bucket_invariants () =
  let module B = Obs.Metrics.Buckets in
  (* Special values pin the underflow/overflow conventions. *)
  Alcotest.(check int) "nan -> underflow" 0 (B.index_of Float.nan);
  Alcotest.(check int) "zero -> underflow" 0 (B.index_of 0.0);
  Alcotest.(check int) "negative -> underflow" 0 (B.index_of (-3.5));
  Alcotest.(check int) "+inf -> overflow" (B.n - 1) (B.index_of infinity);
  (* Contiguity: each bucket's upper bound is the next bucket's lower. *)
  for i = 1 to B.n - 3 do
    let _, hi = B.bounds i in
    let lo', _ = B.bounds (i + 1) in
    Alcotest.(check (float 0.0))
      (Printf.sprintf "bucket %d contiguous" i)
      hi lo'
  done;
  (* 10k pseudo-random values spanning the whole dynamic range. *)
  let rng = Prng.Rng.create ~seed:77 in
  let prev = ref (0, 0.0) in
  for trial = 1 to 10_000 do
    let exponent = Prng.Rng.float_range rng ~lo:(-14.0) ~hi:10.0 in
    let v = 10.0 ** exponent in
    let i = B.index_of v in
    Alcotest.(check bool)
      (Printf.sprintf "trial %d: index in range" trial)
      true
      (i >= 0 && i < B.n);
    let lo, hi = B.bounds i in
    Alcotest.(check bool)
      (Printf.sprintf "trial %d: %g in [%g, %g)" trial v lo hi)
      true
      (lo <= v && v < hi);
    (* Monotonicity versus the previous trial. *)
    let pi, pv = !prev in
    Alcotest.(check bool)
      (Printf.sprintf "trial %d: index monotone in value" trial)
      true
      (if v > pv then i >= pi else if v < pv then i <= pi else i = pi);
    prev := (i, v)
  done

let spin () =
  (* A little deterministic work so spans have a chance at nonzero time;
     the assertions below hold even if the clock does not tick. *)
  let acc = ref 0.0 in
  for i = 1 to 10_000 do
    acc := !acc +. sqrt (float_of_int i)
  done;
  ignore (Sys.opaque_identity !acc)

let find_span name =
  match
    List.find_opt
      (fun (s : Obs.Span.stat) -> s.Obs.Span.name = name)
      (Obs.Span.snapshot ())
  with
  | Some s -> s
  | None -> Alcotest.failf "span %s not recorded" name

let test_span_nesting () =
  reset_all ();
  Obs.span "test.span.outer" (fun () ->
      spin ();
      Obs.span "test.span.inner" (fun () -> spin ());
      Obs.span "test.span.inner" (fun () -> spin ()));
  let outer = find_span "test.span.outer" in
  let inner = find_span "test.span.inner" in
  Alcotest.(check int) "outer ran once" 1 outer.Obs.Span.count;
  Alcotest.(check int) "inner ran twice" 2 inner.Obs.Span.count;
  List.iter
    (fun (s : Obs.Span.stat) ->
      Alcotest.(check bool)
        (s.Obs.Span.name ^ ": self >= 0")
        true (s.self_s >= 0.0);
      Alcotest.(check bool)
        (s.Obs.Span.name ^ ": self <= total")
        true
        (s.self_s <= s.total_s +. 1e-9))
    [ outer; inner ];
  (* Children never overlap the parent's self time: the parent's total
     covers its self plus all nested child time. *)
  Alcotest.(check bool)
    "outer total covers inner total" true
    (outer.Obs.Span.total_s +. 1e-9
    >= inner.Obs.Span.total_s +. outer.Obs.Span.self_s)

let test_span_exception_safe () =
  reset_all ();
  (try
     Obs.span "test.span.raises" (fun () ->
         spin ();
         failwith "boom")
   with Failure _ -> ());
  let s = find_span "test.span.raises" in
  Alcotest.(check int) "raising span still recorded" 1 s.Obs.Span.count

let test_snapshot_then_reset () =
  reset_all ();
  let c = Obs.Metrics.counter "test.obs.reset_counter" in
  let h = Obs.Metrics.histogram "test.obs.reset_hist" in
  for i = 1 to 500 do
    Obs.Metrics.incr c;
    Obs.Metrics.observe h (float_of_int i)
  done;
  let s1 = Obs.Metrics.snapshot () in
  let s2 = Obs.Metrics.snapshot () in
  Alcotest.(check bool) "snapshot is read-only (idempotent)" true (s1 = s2);
  Obs.Metrics.reset ();
  Alcotest.(check int)
    "counter zero after reset" 0
    (Obs.Metrics.Snapshot.counter_value
       (Obs.Metrics.snapshot ())
       "test.obs.reset_counter");
  (match
     Obs.Metrics.Snapshot.find (Obs.Metrics.snapshot ()) "test.obs.reset_hist"
   with
  | Some (Obs.Metrics.Snapshot.Histogram hist) ->
      Alcotest.(check int) "histogram empty after reset" 0 hist.count
  | _ -> Alcotest.fail "histogram should stay registered across reset");
  (* Recording still works after a reset. *)
  Obs.Metrics.incr c;
  Alcotest.(check int) "recording resumes" 1 (Obs.Metrics.counter_value c)

let test_name_type_clash () =
  ignore (Obs.Metrics.counter "test.obs.clash");
  Alcotest.check_raises "same name, different type"
    (Invalid_argument
       "Obs.Metrics: \"test.obs.clash\" already registered as a counter")
    (fun () -> ignore (Obs.Metrics.gauge "test.obs.clash"))

let test_json_roundtrip () =
  let cases =
    [
      ({|{"a": 1, "b": [true, null, "x\ny"], "c": -2.5e3}|}, true);
      ({|"tab\there"|}, true);
      ({|{"dangling": }|}, false);
      ({|{"a": 1} trailing|}, false);
      ({|{"nan": NaN}|}, false);
    ]
  in
  List.iter
    (fun (s, ok) ->
      match Obs.Json.of_string s with
      | Ok _ ->
          Alcotest.(check bool) (Printf.sprintf "parse %S" s) ok true
      | Error _ ->
          Alcotest.(check bool) (Printf.sprintf "parse %S" s) ok false)
    cases;
  (* escape really escapes: the parser must invert it. *)
  let tricky = "a\"b\\c\nd\te\001f" in
  match Obs.Json.of_string ("\"" ^ Obs.Json.escape tricky ^ "\"") with
  | Ok (Obs.Json.Str s) ->
      Alcotest.(check string) "escape/parse roundtrip" tricky s
  | _ -> Alcotest.fail "escaped string did not parse back"

(* The within-run trace order belongs to Obs.Trace: lines sorted by the
   float time, equal times by bytes, whatever the emission order. *)
let test_trace_run_order () =
  let events =
    [
      ("timer.fire", 0.5, [ ("q", Obs.Trace.I 2) ]);
      ("tap.observe", 0.25, [ ("kind", Obs.Trace.S "dummy") ]);
      ("timer.fire", 0.25, [ ("q", Obs.Trace.I 0) ]);
      ("packet.sent", 1e-13, []);
      ("tap.observe", 0.25, [ ("kind", Obs.Trace.S "payload") ]);
      (* prints as t = 1 like the next one, but is the later float *)
      ("packet.sent", 1.0 +. 1e-15, []);
      ("timer.fire", 1.0, []);
    ]
  in
  let write events =
    let path = Filename.temp_file "ta_trace_order" ".jsonl" in
    Obs.Trace.enable ~path;
    Fun.protect
      ~finally:(fun () -> Obs.Trace.disable ())
      (fun () ->
        Obs.Trace.with_run "r" (fun () ->
            List.iter
              (fun (name, t, fields) -> Obs.Trace.event ~name ~t fields)
              events);
        Obs.Trace.flush ());
    let body = In_channel.with_open_bin path In_channel.input_all in
    Sys.remove path;
    String.split_on_char '\n' body |> List.filter (( <> ) "") |> List.tl
  in
  let line ev t rest = Printf.sprintf {|{"run":"r","t":%s,"ev":"%s"%s}|} t ev rest in
  let expected =
    [
      line "packet.sent" "1e-13" "";
      line "tap.observe" "0.25" {|,"kind":"dummy"|};
      line "tap.observe" "0.25" {|,"kind":"payload"|};
      line "timer.fire" "0.25" {|,"q":0|};
      line "timer.fire" "0.5" {|,"q":2|};
      line "timer.fire" "1" "";
      line "packet.sent" "1" "";
    ]
  in
  Alcotest.(check (list string)) "sorted by t, then bytes" expected (write events);
  Alcotest.(check (list string))
    "emission order is irrelevant" (write events) (write (List.rev events))

let suite =
  [
    Alcotest.test_case "counter merge: any domain partition" `Quick
      test_counter_merge_partitions;
    Alcotest.test_case "histogram+gauge merge: any domain partition" `Quick
      test_histogram_merge_partitions;
    Alcotest.test_case "histogram bucket invariants (10k values)" `Quick
      test_bucket_invariants;
    Alcotest.test_case "span nesting: self times consistent" `Quick
      test_span_nesting;
    Alcotest.test_case "span records across exceptions" `Quick
      test_span_exception_safe;
    Alcotest.test_case "snapshot idempotent; reset zeroes" `Quick
      test_snapshot_then_reset;
    Alcotest.test_case "metric name/type clash rejected" `Quick
      test_name_type_clash;
    Alcotest.test_case "json codec roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "trace run: time order, then bytes" `Quick
      test_trace_run_order;
  ]
