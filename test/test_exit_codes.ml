(* Exit-code contract, end to end:

     0   success
     1   tabench_diff found a performance regression
     2   invalid CLI (both the Cmdliner-based ta_lab and the Arg-based
         bench/talint/tabench_diff), or an unreadable/invalid report
     3   --strict: Tap_starved / event-budget — a diagnosed report,
         never a backtrace
     4   partial results — the supervisor contained per-point failures
         and emitted annotated tables plus a ta-fail/1 manifest

   Locked down here because ta_lab once exited with Cmdliner's default
   124 on bad flags while bench exited 2, and bench let Tap_starved
   escape as an uncaught exception (which the OCaml runtime reports with
   exit code 2 — colliding with the invalid-CLI code). *)

let find_exe candidates = List.find_opt Sys.file_exists candidates

let ta_lab () = find_exe [ "../bin/ta_lab.exe"; "_build/default/bin/ta_lab.exe" ]

let bench () =
  find_exe [ "../bench/main.exe"; "_build/default/bench/main.exe" ]

let tabench_diff () =
  find_exe
    [ "../bin/tabench_diff.exe"; "_build/default/bin/tabench_diff.exe" ]

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Run [exe args], returning (exit code, combined output). *)
let run exe args =
  let out = Filename.temp_file "exit_code" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out)
    (fun () ->
      let code =
        Sys.command
          (Printf.sprintf "%s %s >%s 2>&1" (Filename.quote exe) args
             (Filename.quote out))
      in
      (code, read_file out))

let check_code exe args expected =
  let code, output = run exe args in
  Alcotest.(check int)
    (Printf.sprintf "'%s' exits %d" args expected)
    expected code;
  output

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let test_ta_lab_invalid_cli () =
  match ta_lab () with
  | None -> Alcotest.skip ()
  | Some exe ->
      ignore (check_code exe "no-such-subcommand" 2 : string);
      ignore (check_code exe "fig4b --no-such-flag" 2 : string);
      ignore (check_code exe "fig4b --scale 0" 2 : string);
      ignore (check_code exe "fig4b --scale nan" 2 : string);
      ignore (check_code exe "fig4b --seed -3" 2 : string);
      ignore (check_code exe "faults --intensities 1.5" 2 : string);
      ignore (check_code exe "faults --intensities ''" 2 : string);
      ignore (check_code exe "fleet --flows 0,100" 2 : string);
      ignore (check_code exe "fleet --flows ''" 2 : string);
      ignore (check_code exe "fleet --gateways 0" 2 : string);
      ignore (check_code exe "fleet --probes -1" 2 : string);
      ignore (check_code exe "fleet --duration 0" 2 : string);
      ignore (check_code exe "fleet --load sinusoidal" 2 : string);
      ignore (check_code exe "fig4b --jobs 0" 2 : string);
      (* Out-of-range numbers are parse errors, never an uncaught
         Invalid_argument (which the runtime also reports with exit 2). *)
      List.iter
        (fun args ->
          let output = check_code exe args 2 in
          Alcotest.(check bool)
            (Printf.sprintf "'%s' is rejected at parse time" args)
            false (contains output "Fatal error"))
        [
          "theory -r nan"; "theory -r inf"; "theory -r 2 -n 1";
          "design --vmax nan"; "design --vmax 2"; "design --nmax 1";
          "evaluate -n 0"; "evaluate --padding vit:inf";
        ]

let test_bench_invalid_cli () =
  match bench () with
  | None -> Alcotest.skip ()
  | Some exe ->
      ignore (check_code exe "--only fig4x" 2 : string);
      ignore (check_code exe "--scale -1 --no-micro" 2 : string);
      ignore (check_code exe "--seed -1 --no-micro" 2 : string);
      ignore (check_code exe "--intensities 1.5 --no-micro" 2 : string);
      ignore (check_code exe "--check-trace --no-micro" 2 : string);
      ignore (check_code exe "--no-such-flag" 2 : string)

let test_bench_starved_exits () =
  match bench () with
  | None -> Alcotest.skip ()
  | Some exe ->
      (* Default supervised run: the blackout point fails, the rest of
         the table survives, and bench reports partial results. *)
      let output =
        check_code exe "--only faults --scale 0.05 --intensities 1 --no-micro"
          4
      in
      Alcotest.(check bool)
        "report names the starvation" true
        (contains output "tap starved");
      Alcotest.(check bool)
        "partial-results notice printed" true
        (contains output "partial results");
      Alcotest.(check bool)
        "no raw backtrace" false
        (contains output "Raised at" || contains output "Fatal error");
      (* --strict restores the historical fail-fast contract: exit 3
         with a diagnosed report, still no backtrace. *)
      let strict =
        check_code exe
          "--only faults --scale 0.05 --intensities 1 --no-micro --strict" 3
      in
      Alcotest.(check bool)
        "strict report names the starvation" true
        (contains strict "tap starved");
      Alcotest.(check bool)
        "strict: no raw backtrace" false
        (contains strict "Raised at" || contains strict "Fatal error")

let test_ta_lab_injected_failure_exit_4 () =
  match ta_lab () with
  | None -> Alcotest.skip ()
  | Some exe ->
      (* Deterministic fault injection: point 0 of the fig4b sweep fails
         on every attempt, so after retries it is quarantined and ta_lab
         reports partial results. *)
      let output =
        check_code exe
          "fig4b --scale 0.05 --inject-fail fig4b:0 --retries 1" 4
      in
      Alcotest.(check bool)
        "partial-results notice printed" true
        (contains output "partial results");
      Alcotest.(check bool)
        "quarantined point is named" true
        (contains output "fig4b");
      Alcotest.(check bool)
        "no raw backtrace" false
        (contains output "Raised at" || contains output "Fatal error")

(* Write a minimal but valid ta-bench/2 report; [wall_s] and [ns] let a
   test dial in a regression on one side. *)
let write_report ~wall_s ~ns =
  let path = Filename.temp_file "tabench" ".json" in
  Out_channel.with_open_bin path (fun oc ->
      Printf.fprintf oc
        {|{"schema": "ta-bench/2", "scale": 0.05, "seed": 42, "jobs": 1,
 "stages": [{"id": "fig4b", "wall_s": %g}],
 "micro": [{"name": "event_queue.push_pop_1k", "ns_per_run": %g}]}|}
        wall_s ns);
  path

let with_reports f =
  let base = write_report ~wall_s:1.0 ~ns:100.0 in
  let slow = write_report ~wall_s:1.0 ~ns:200.0 in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove base;
      Sys.remove slow)
    (fun () -> f ~base ~slow)

let test_tabench_diff_invalid_cli () =
  match tabench_diff () with
  | None -> Alcotest.skip ()
  | Some exe ->
      with_reports (fun ~base ~slow:_ ->
          ignore (check_code exe (Filename.quote base) 2 : string);
          ignore (check_code exe "--no-such-flag a.json b.json" 2 : string);
          ignore
            (check_code exe
               (Printf.sprintf "--format yaml %s %s" (Filename.quote base)
                  (Filename.quote base))
               2
              : string);
          ignore
            (check_code exe
               (Printf.sprintf "--tolerance -0.5 %s %s" (Filename.quote base)
                  (Filename.quote base))
               2
              : string);
          ignore
            (check_code exe
               (Printf.sprintf "/nonexistent/base.json %s" (Filename.quote base))
               2
              : string))

let test_tabench_diff_rejects_bad_report () =
  match tabench_diff () with
  | None -> Alcotest.skip ()
  | Some exe ->
      let bad = Filename.temp_file "tabench" ".json" in
      Fun.protect
        ~finally:(fun () -> Sys.remove bad)
        (fun () ->
          let check contents expected_msg =
            Out_channel.with_open_bin bad (fun oc ->
                Out_channel.output_string oc contents);
            let output =
              check_code exe
                (Printf.sprintf "%s %s" (Filename.quote bad)
                   (Filename.quote bad))
                2
            in
            Alcotest.(check bool)
              (Printf.sprintf "error mentions %S" expected_msg)
              true
              (let lh = String.length output
               and ln = String.length expected_msg in
               let rec go i =
                 i + ln <= lh
                 && (String.sub output i ln = expected_msg || go (i + 1))
               in
               go 0)
          in
          check "{not json" "tabench_diff:";
          check {|{"schema": "ta-bench/1"}|} "unsupported schema";
          check {|{"stages": []}|} "missing \"schema\" key")

let test_tabench_diff_verdicts () =
  match tabench_diff () with
  | None -> Alcotest.skip ()
  | Some exe ->
      with_reports (fun ~base ~slow ->
          let q = Filename.quote in
          (* Identical reports: clean exit 0. *)
          let out = check_code exe (Printf.sprintf "%s %s" (q base) (q base)) 0 in
          let contains hay needle =
            let lh = String.length hay and ln = String.length needle in
            let rec go i =
              i + ln <= lh && (String.sub hay i ln = needle || go (i + 1))
            in
            go 0
          in
          Alcotest.(check bool) "self-diff reports OK" true (contains out "OK:");
          (* 2x slower micro breaches the default 25% tolerance: exit 1. *)
          ignore
            (check_code exe (Printf.sprintf "%s %s" (q base) (q slow)) 1
              : string);
          (* ...but a widened tolerance lets the same pair pass. *)
          ignore
            (check_code exe
               (Printf.sprintf "--tolerance 1.5 %s %s" (q base) (q slow))
               0
              : string);
          (* Improvements never fail, whatever the magnitude. *)
          ignore
            (check_code exe (Printf.sprintf "%s %s" (q slow) (q base)) 0
              : string))

let suite =
  [
    Alcotest.test_case "ta_lab: invalid CLI exits 2" `Quick
      test_ta_lab_invalid_cli;
    Alcotest.test_case "bench: invalid CLI exits 2" `Quick
      test_bench_invalid_cli;
    Alcotest.test_case "bench starvation: exit 4 contained, 3 strict" `Quick
      test_bench_starved_exits;
    Alcotest.test_case "ta_lab: injected failure exits 4" `Quick
      test_ta_lab_injected_failure_exit_4;
    Alcotest.test_case "tabench_diff: invalid CLI exits 2" `Quick
      test_tabench_diff_invalid_cli;
    Alcotest.test_case "tabench_diff: bad report exits 2" `Quick
      test_tabench_diff_rejects_bad_report;
    Alcotest.test_case "tabench_diff: verdict exit codes 0/1" `Quick
      test_tabench_diff_verdicts;
  ]
