(* Resilience layer: ta-ckpt/1 journal recovery, supervised retry and
   quarantine, checkpoint/resume bit-identity at any worker count, and
   partial-result table rendering.  These are the invariants behind the
   exit-4 contract: a crash or a poisoned point must never change the
   bytes of what a completed run would have produced. *)

module Sweep = Scenarios.Sweep
module Journal = Exec.Journal

(* Sweep knobs are process-wide; reset them on both sides of every test
   so suites stay independent. *)
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

let with_jobs jobs f =
  Exec.Pool.set_default_jobs jobs;
  Fun.protect ~finally:(fun () -> Exec.Pool.set_default_jobs 1) f

let with_temp_dir f =
  let dir = Filename.temp_file "ta_ckpt" "" in
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

(* --- CRC-32 --- *)

let test_crc_known_answers () =
  (* IEEE 802.3 check value: crc32("123456789") = 0xCBF43926. *)
  Alcotest.(check string)
    "standard check value" "cbf43926"
    (Exec.Crc.hex_of_string "123456789");
  Alcotest.(check string) "empty string" "00000000" (Exec.Crc.hex_of_string "");
  (* Streaming update over a split input equals the one-shot digest. *)
  Alcotest.(check int)
    "update is streamable"
    (Exec.Crc.string "123456789")
    (Exec.Crc.update (Exec.Crc.string "1234") "56789");
  Alcotest.(check bool)
    "distinct inputs, distinct digests" false
    (Exec.Crc.string "ta-ckpt/1" = Exec.Crc.string "ta-ckpt/2")

(* --- injection-spec parsing --- *)

let test_parse_injection () =
  (match Sweep.parse_injection "fig4b:0" with
  | Ok [ { Sweep.inj_sweep = "fig4b"; inj_index = 0; first_ok = None } ] -> ()
  | _ -> Alcotest.fail "simple SWEEP:INDEX spec");
  (match Sweep.parse_injection "a:1@2,b:3" with
  | Ok
      [
        { Sweep.inj_sweep = "a"; inj_index = 1; first_ok = Some 2 };
        { Sweep.inj_sweep = "b"; inj_index = 3; first_ok = None };
      ] ->
      ()
  | _ -> Alcotest.fail "comma-separated list with @ATTEMPTS");
  List.iter
    (fun bad ->
      match Sweep.parse_injection bad with
      | Error msg ->
          Alcotest.(check bool)
            (Printf.sprintf "%S error names the token" bad)
            true
            (String.length msg > 0)
      | Ok _ -> Alcotest.fail (Printf.sprintf "%S should be rejected" bad))
    [ "bad"; ":3"; "a:"; "a:x"; "a:-1"; "a:1@x" ]

(* --- journal: roundtrip, corrupt tail, digest reset --- *)

let ok_entry ~index ~seed v =
  {
    Journal.index;
    seed;
    attempts = 1;
    status = Journal.Point_ok;
    payload = Journal.encode v;
    error = "";
  }

let failed_entry ~index ~seed ~attempts ~status error =
  { Journal.index; seed; attempts; status; payload = ""; error }

let test_journal_roundtrip () =
  with_temp_dir @@ fun dir ->
  let j = Journal.open_ ~dir ~sweep:"t" ~digest:"d1" in
  Alcotest.(check bool)
    "fresh journal: nothing recovered" true
    (Journal.recovery j = { Journal.replayed = 0; dropped = 0; reset = false });
  Journal.append j (ok_entry ~index:0 ~seed:42 (3.5, "x"));
  Journal.append j
    (failed_entry ~index:1 ~seed:42 ~attempts:2 ~status:Journal.Point_failed
       "tap starved in faults (0 of 7 after 1.000 sim-s)");
  Journal.close j;
  let j2 = Journal.open_ ~dir ~sweep:"t" ~digest:"d1" in
  Alcotest.(check bool)
    "reopen replays both records" true
    (Journal.recovery j2 = { Journal.replayed = 2; dropped = 0; reset = false });
  Alcotest.(check int) "count" 2 (Journal.count j2);
  (match Journal.find j2 0 with
  | Some e ->
      Alcotest.(check bool) "ok status survives" true (e.status = Journal.Point_ok);
      Alcotest.(check int) "seed survives" 42 e.seed;
      (match Journal.decode e.payload with
      | Some (f, s) ->
          Alcotest.(check (float 0.0)) "payload float" 3.5 f;
          Alcotest.(check string) "payload string" "x" s
      | None -> Alcotest.fail "payload must decode")
  | None -> Alcotest.fail "point 0 must be journaled");
  (match Journal.find j2 1 with
  | Some e ->
      Alcotest.(check bool)
        "failed status survives" true
        (e.status = Journal.Point_failed);
      Alcotest.(check int) "attempts survive" 2 e.attempts;
      Alcotest.(check string) "diagnostic survives"
        "tap starved in faults (0 of 7 after 1.000 sim-s)" e.error
  | None -> Alcotest.fail "point 1 must be journaled");
  Alcotest.(check bool) "absent point" true (Journal.find j2 2 = None);
  Journal.close j2

let test_journal_corrupt_tail () =
  with_temp_dir @@ fun dir ->
  let j = Journal.open_ ~dir ~sweep:"t" ~digest:"d1" in
  Journal.append j (ok_entry ~index:0 ~seed:7 1.0);
  Journal.append j (ok_entry ~index:1 ~seed:7 2.0);
  Journal.append j (ok_entry ~index:2 ~seed:7 3.0);
  let path = Journal.path j in
  Journal.close j;
  (* Flip one byte inside the second record and append a torn line — the
     shape a SIGKILL mid-append leaves behind. *)
  (match String.split_on_char '\n' (read_file path) with
  | header :: r0 :: r1 :: rest ->
      let r1 = Bytes.of_string r1 in
      Bytes.set r1 4 (if Bytes.get r1 4 = 'a' then 'b' else 'a');
      write_file path
        (String.concat "\n"
           ((header :: r0 :: Bytes.to_string r1 :: rest)
           @ [ {|{"point":9,"seed":"7","att|} ]))
  | _ -> Alcotest.fail "journal should hold a header plus three records");
  let j2 = Journal.open_ ~dir ~sweep:"t" ~digest:"d1" in
  let r = Journal.recovery j2 in
  Alcotest.(check int) "valid prefix replayed" 1 r.Journal.replayed;
  (* Corrupt line + the (valid but untrusted) record after it + torn tail. *)
  Alcotest.(check int) "tail truncated from first corruption" 3
    r.Journal.dropped;
  Alcotest.(check bool) "no reset" false r.Journal.reset;
  Alcotest.(check bool) "point 0 survives" true (Journal.find j2 0 <> None);
  Alcotest.(check bool) "point 1 gone" true (Journal.find j2 1 = None);
  Journal.close j2;
  (* The rewrite dropped the corrupt tail on disk too: a third open is
     clean. *)
  let j3 = Journal.open_ ~dir ~sweep:"t" ~digest:"d1" in
  Alcotest.(check bool)
    "rewritten journal is clean" true
    (Journal.recovery j3 = { Journal.replayed = 1; dropped = 0; reset = false });
  Journal.close j3

let test_journal_digest_reset () =
  with_temp_dir @@ fun dir ->
  let j = Journal.open_ ~dir ~sweep:"t" ~digest:"d1" in
  Journal.append j (ok_entry ~index:0 ~seed:7 1.0);
  Journal.close j;
  (* Same sweep, different config digest: the journaled points answer a
     different question and must be discarded wholesale. *)
  let j2 = Journal.open_ ~dir ~sweep:"t" ~digest:"d2" in
  let r = Journal.recovery j2 in
  Alcotest.(check bool) "journal reset" true r.Journal.reset;
  Alcotest.(check int) "nothing replayed" 0 (Journal.count j2);
  Journal.close j2

(* --- supervised sweep: retry seeds, quarantine, event budget --- *)

(* A task whose value captures exactly which attempt (and hence which
   derived seed) produced it. *)
let seed_probe ~seed = fun ~attempt i x ->
  (i, x, attempt, Sweep.attempt_seed ~seed:(seed + i) ~attempt)

let test_retry_seed_determinism () =
  with_defaults @@ fun () ->
  Alcotest.(check int)
    "attempt 0 is the unsupervised baseline" 1234
    (Sweep.attempt_seed ~seed:1234 ~attempt:0);
  Alcotest.(check bool)
    "retry attempts derive a fresh stream" true
    (Sweep.attempt_seed ~seed:1234 ~attempt:1 <> 1234);
  (match Sweep.parse_injection "t.retry:1@1" with
  | Ok injs -> Sweep.set_injections injs
  | Error e -> Alcotest.fail e);
  let run () =
    Sweep.mapi ~sweep:"t.retry" ~digest:"d" ~seed:1000
      ~task:(seed_probe ~seed:1000) [ 10; 20; 30 ]
  in
  let check_cells (cells : _ Sweep.cell list) =
    match cells with
    | [ c0; c1; c2 ] ->
        Alcotest.(check int) "point 0 clean" 1 c0.Sweep.attempts;
        Alcotest.(check bool)
          "point 0 value from attempt 0" true
          (c0.Sweep.value = Some (0, 10, 0, 1000));
        Alcotest.(check bool) "point 1 recovered" true
          (c1.Sweep.status = Sweep.Point_ok);
        Alcotest.(check int) "point 1 took two attempts" 2 c1.Sweep.attempts;
        Alcotest.(check bool)
          "point 1 value carries the attempt-1 seed" true
          (c1.Sweep.value
          = Some (1, 20, 1, Sweep.attempt_seed ~seed:1001 ~attempt:1));
        Alcotest.(check bool)
          "point 2 untouched" true
          (c2.Sweep.value = Some (2, 30, 0, 1002))
    | _ -> Alcotest.fail "three cells expected"
  in
  let first = run () in
  check_cells first;
  (* A recovered point is not a failure: the sweep is not partial. *)
  Alcotest.(check bool) "retried point leaves no failure" false
    (Sweep.partial ());
  (* Identical at every worker count, injection included. *)
  List.iter
    (fun jobs ->
      let again = with_jobs jobs run in
      check_cells again;
      Alcotest.(check bool)
        (Printf.sprintf "bit-identical at jobs=%d" jobs)
        true (first = again))
    [ 2; 8 ]

let test_quarantine_threshold () =
  with_defaults @@ fun () ->
  Sweep.set_retries 1;
  (match Sweep.parse_injection "t.quar:0" with
  | Ok injs -> Sweep.set_injections injs
  | Error e -> Alcotest.fail e);
  let cells =
    Sweep.mapi ~sweep:"t.quar" ~digest:"d" ~seed:5
      ~task:(fun ~attempt:_ i x -> i + x)
      [ 100; 200 ]
  in
  (match cells with
  | [ c0; c1 ] ->
      Alcotest.(check bool)
        "point 0 quarantined" true
        (c0.Sweep.status = Sweep.Point_quarantined);
      (* retries = 1 means at most 1 + 1 attempts before quarantine. *)
      Alcotest.(check int) "retries exhausted" 2 c0.Sweep.attempts;
      Alcotest.(check bool) "no value" true (c0.Sweep.value = None);
      Alcotest.(check bool) "diagnostic present" true
        (String.length c0.Sweep.error > 0);
      Alcotest.(check bool)
        "point 1 unaffected" true
        (c1.Sweep.value = Some 201)
  | _ -> Alcotest.fail "two cells expected");
  Alcotest.(check (list int))
    "ok_values skips the quarantined point" [ 201 ]
    (Sweep.ok_values cells);
  (* The failure registry drives exit 4 and the ta-fail/1 manifest. *)
  Alcotest.(check bool) "sweep is partial" true (Sweep.partial ());
  (match Sweep.failures () with
  | [ f ] ->
      Alcotest.(check string) "failure names the sweep" "t.quar" f.Sweep.sweep;
      Alcotest.(check int) "failure names the point" 0 f.Sweep.index;
      Alcotest.(check int) "failure records attempts" 2 f.Sweep.attempts;
      Alcotest.(check bool)
        "failure is quarantined" true
        (f.Sweep.f_status = Sweep.Point_quarantined)
  | fs ->
      Alcotest.fail
        (Printf.sprintf "exactly one failure expected, got %d" (List.length fs)));
  let manifest = Sweep.manifest_json () in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "manifest mentions %S" needle)
        true
        (let lh = String.length manifest and ln = String.length needle in
         let rec go i =
           i + ln <= lh && (String.sub manifest i ln = needle || go (i + 1))
         in
         go 0))
    [ Sweep.manifest_schema; "t.quar"; "quarantined" ];
  Sweep.clear_failures ();
  Alcotest.(check bool) "cleared registry" false (Sweep.partial ())

let test_event_budget_fails_fast () =
  with_defaults @@ fun () ->
  (* A declared deterministic failure must not be retried: one attempt,
     Point_failed, and the rest of the sweep survives. *)
  let attempts_seen = Atomic.make 0 in
  let cells =
    Sweep.mapi ~sweep:"t.budget" ~digest:"d" ~seed:5
      ~task:(fun ~attempt:_ i x ->
        if i = 0 then begin
          Atomic.incr attempts_seen;
          raise (Desim.Sim.Event_budget_exceeded { max_events = 5 })
        end;
        x)
      [ 100; 200 ]
  in
  (match cells with
  | [ c0; c1 ] ->
      Alcotest.(check bool)
        "budget breach is Point_failed" true
        (c0.Sweep.status = Sweep.Point_failed);
      Alcotest.(check int) "single attempt, no retry" 1 c0.Sweep.attempts;
      Alcotest.(check string)
        "deterministic diagnostic" "event budget exceeded (> 5 events)"
        c0.Sweep.error;
      Alcotest.(check bool) "sibling point ok" true (c1.Sweep.value = Some 200)
  | _ -> Alcotest.fail "two cells expected");
  Alcotest.(check int) "task ran exactly once" 1 (Atomic.get attempts_seen);
  (* End to end through the DLS handoff: a real simulation under a tiny
     budget trips the watchdog instead of running to completion. *)
  Sweep.set_event_budget (Some 10);
  let cells =
    Sweep.mapi ~sweep:"t.budget2" ~digest:"d" ~seed:5
      ~task:(fun ~attempt:_ _ seed ->
        (Scenarios.System.run
           { Scenarios.System.default_config with Scenarios.System.seed }
           ~piats:50)
          .Scenarios.System.payload_delivered)
      [ 4_242 ]
  in
  (match cells with
  | [ c ] ->
      Alcotest.(check bool)
        "simulation contained by the watchdog" true
        (c.Sweep.status = Sweep.Point_failed);
      Alcotest.(check string)
        "watchdog diagnostic" "event budget exceeded (> 10 events)"
        c.Sweep.error
  | _ -> Alcotest.fail "one cell expected");
  Sweep.clear_failures ()

let test_prepare_failure_marks_all_points () =
  with_defaults @@ fun () ->
  Sweep.set_retries 0;
  let cells =
    Sweep.mapi ~sweep:"t.prep" ~digest:"d" ~seed:5
      ~prepare:(fun () -> raise (Sweep.Sweep_internal_error "no traces"))
      ~task:(fun ~attempt:_ i _ -> i)
      [ (); (); () ]
  in
  Alcotest.(check int) "every point gets a cell" 3 (List.length cells);
  List.iter
    (fun c ->
      Alcotest.(check bool)
        "prepare failure quarantines the point" true
        (c.Sweep.status = Sweep.Point_quarantined);
      Alcotest.(check string)
        "diagnostic names prepare" "prepare: internal error: no traces"
        c.Sweep.error)
    cells;
  Alcotest.(check (list int)) "no ok values" [] (Sweep.ok_values cells);
  Sweep.clear_failures ()

(* --- checkpoint/resume: bit-identity at any jobs --- *)

let observable (c : _ Sweep.cell) =
  (* Everything that feeds tables and manifests; [resumed] is telemetry. *)
  (c.Sweep.index, c.Sweep.status, c.Sweep.attempts, c.Sweep.value, c.Sweep.error)

let resume_sweep ~dir ~jobs =
  with_defaults @@ fun () ->
  Sweep.set_checkpoint_dir (Some dir);
  with_jobs jobs (fun () ->
      Sweep.mapi ~sweep:"t.resume" ~digest:"cfg" ~seed:9_000
        ~task:(seed_probe ~seed:9_000)
        (List.init 8 (fun i -> 10 * i)))

let test_resume_bit_identity () =
  (* Ground truth: the same sweep with no checkpointing at all. *)
  let bare =
    with_defaults (fun () ->
        Sweep.mapi ~sweep:"t.resume" ~digest:"cfg" ~seed:9_000
          ~task:(seed_probe ~seed:9_000)
          (List.init 8 (fun i -> 10 * i)))
  in
  List.iter
    (fun resume_jobs ->
      with_temp_dir @@ fun dir ->
      (* Full checkpointed run, then chop the journal back to the header
         plus three records — the state a SIGKILL after three completed
         points leaves behind. *)
      let full = resume_sweep ~dir ~jobs:1 in
      Alcotest.(check (list (testable (Fmt.any "cell") ( = ))))
        "checkpointed run matches the bare run"
        (List.map observable bare) (List.map observable full);
      let path = Filename.concat dir "t.resume.ckpt" in
      Alcotest.(check bool) "journal exists" true (Sys.file_exists path);
      (match String.split_on_char '\n' (read_file path) with
      | header :: records ->
          let kept = List.filteri (fun i _ -> i < 3) records in
          write_file path (String.concat "\n" (header :: kept) ^ "\n")
      | [] -> Alcotest.fail "journal should not be empty");
      let resumed = resume_sweep ~dir ~jobs:resume_jobs in
      Alcotest.(check (list (testable (Fmt.any "cell") ( = ))))
        (Printf.sprintf "resumed at jobs=%d is bit-identical" resume_jobs)
        (List.map observable full)
        (List.map observable resumed);
      Alcotest.(check bool)
        "some points replayed from the journal" true
        (List.exists (fun c -> c.Sweep.resumed) resumed);
      Alcotest.(check bool)
        "some points recomputed" true
        (List.exists (fun c -> not c.Sweep.resumed) resumed);
      (* A third run finds every point journaled and replays them all
         without computing anything. *)
      let replayed = resume_sweep ~dir ~jobs:1 in
      Alcotest.(check bool)
        "fully journaled run is pure replay" true
        (List.for_all (fun c -> c.Sweep.resumed) replayed);
      Alcotest.(check (list (testable (Fmt.any "cell") ( = ))))
        "pure replay is bit-identical"
        (List.map observable full)
        (List.map observable replayed))
    [ 1; 2; 8 ]

let test_resume_replays_failures () =
  (* Terminal failures are journaled and must replay as-is: a resumed
     partial table is byte-identical to an uninterrupted one, and the
     failure registry is repopulated for the exit-4 path. *)
  with_temp_dir @@ fun dir ->
  let run () =
    with_defaults @@ fun () ->
    Sweep.set_checkpoint_dir (Some dir);
    Sweep.set_retries 1;
    (match Sweep.parse_injection "t.replay:1" with
    | Ok injs -> Sweep.set_injections injs
    | Error e -> Alcotest.fail e);
    let cells =
      Sweep.mapi ~sweep:"t.replay" ~digest:"cfg" ~seed:77
        ~task:(fun ~attempt:_ i x -> i + x)
        [ 100; 200; 300 ]
    in
    (cells, Sweep.failures ())
  in
  let first, first_failures = run () in
  let second, second_failures = run () in
  Alcotest.(check (list (testable (Fmt.any "cell") ( = ))))
    "replayed cells identical"
    (List.map observable first)
    (List.map observable second);
  Alcotest.(check bool)
    "quarantined point replayed, not recomputed" true
    (List.exists
       (fun c -> c.Sweep.status = Sweep.Point_quarantined && c.Sweep.resumed)
       second);
  Alcotest.(check bool)
    "failure registry repopulated on replay" true
    (first_failures = second_failures && second_failures <> [])

(* --- partial tables --- *)

let test_table_status_column () =
  let clean = Scenarios.Table.create ~title:"t" ~columns:[ "a"; "b" ] in
  Scenarios.Table.add_row clean [ "1"; "2" ];
  Alcotest.(check bool) "clean table has no failures" false
    (Scenarios.Table.has_failures clean);
  let csv = Scenarios.Table.to_csv clean in
  Alcotest.(check bool)
    "clean CSV has no status column" false
    (String.length csv >= 10 && String.sub csv 0 10 = "a,b,status");
  let partial = Scenarios.Table.create ~title:"t" ~columns:[ "a"; "b" ] in
  Scenarios.Table.add_row partial [ "1"; "2" ];
  Scenarios.Table.add_row partial
    ~status:(Scenarios.Table.Row_failed "tap starved")
    [ "3"; "-" ];
  Scenarios.Table.add_row partial
    ~status:(Scenarios.Table.Row_quarantined "boom")
    [ "5"; "-" ];
  Alcotest.(check bool) "partial table reports failures" true
    (Scenarios.Table.has_failures partial);
  let csv = Scenarios.Table.to_csv partial in
  let contains needle =
    let lh = String.length csv and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub csv i ln = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "partial CSV mentions %S" needle)
        true (contains needle))
    [ "status"; "ok"; "failed: tap starved"; "quarantined: boom" ]

(* --- the sweep renderer --- *)

(* The one rule of every sweep table: each point adds its row group in
   point order, so a failed point's key row (then "-" cells, with its
   status) sits at its position; rows that aggregate all points come
   first. *)
let test_render_failed_point_in_place () =
  with_defaults @@ fun () ->
  with_temp_dir @@ fun dir ->
  Sweep.set_retries 0;
  (match Sweep.parse_injection "t.render:1" with
  | Ok injs -> Sweep.set_injections injs
  | Error e -> Alcotest.fail e);
  let points = [ 10; 20; 30 ] in
  let cells =
    Sweep.mapi ~sweep:"t.render" ~digest:"d" ~seed:1
      ~task:(fun ~attempt:_ _i x -> 2 * x)
      points
  in
  let null_fmt = Format.make_formatter (fun _ _ _ -> ()) ignore in
  let csv ?aggregate ~rows file =
    Sweep.render ~csv:(Some dir, file) ?aggregate ~title:"t"
      ~columns:[ "x"; "2x" ] ~key:string_of_int ~rows points cells null_fmt;
    read_file (Filename.concat dir file)
  in
  let placeholder =
    "20,-,\"quarantined: injected failure (t.render point 1, attempt 0)\""
  in
  Alcotest.(check string)
    "ok, quarantined placeholder, ok"
    (String.concat "\n"
       [ "x,2x,status"; "10,20,ok"; placeholder; "30,60,ok"; "" ])
    (csv "per_point.csv" ~rows:(fun v ->
         [ [ string_of_int (v / 2); string_of_int v ] ]));
  Alcotest.(check string)
    "aggregated rows first, placeholder after them"
    (String.concat "\n" [ "x,2x,status"; "all,80,ok"; placeholder; "" ])
    (csv "aggregate.csv" ~aggregate:[ [ "all"; "80" ] ] ~rows:(fun _ -> []))

let suite =
  [
    Alcotest.test_case "CRC-32 known answers" `Quick test_crc_known_answers;
    Alcotest.test_case "injection spec parsing" `Quick test_parse_injection;
    Alcotest.test_case "journal roundtrip" `Quick test_journal_roundtrip;
    Alcotest.test_case "journal corrupt-tail recovery" `Quick
      test_journal_corrupt_tail;
    Alcotest.test_case "journal digest-mismatch reset" `Quick
      test_journal_digest_reset;
    Alcotest.test_case "retry seeds deterministic at any jobs" `Quick
      test_retry_seed_determinism;
    Alcotest.test_case "quarantine after retries exhausted" `Quick
      test_quarantine_threshold;
    Alcotest.test_case "event budget fails fast" `Slow
      test_event_budget_fails_fast;
    Alcotest.test_case "prepare failure marks all points" `Quick
      test_prepare_failure_marks_all_points;
    Alcotest.test_case "resume bit-identity at jobs 1/2/8" `Slow
      test_resume_bit_identity;
    Alcotest.test_case "resume replays journaled failures" `Quick
      test_resume_replays_failures;
    Alcotest.test_case "table status column" `Quick test_table_status_column;
    Alcotest.test_case "sweep render: failed point keeps its position"
      `Quick test_render_failed_point_in_place;
  ]
