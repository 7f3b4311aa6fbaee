(* Golden suite for the talint static-analysis pass: per-file rule
   fixtures (positive and negative) under lint_fixtures/, suppression
   comments, role exemptions, and the whole-program layer — fixture
   TREES for the interprocedural passes (E001 exception escape through
   two call hops, T001 clock taint via a helper module, A001 closure
   allocation in a hot-path callee, U001 exports no executable reaches),
   the lint/BASELINE.json waiver
   workflow, the incremental summary cache, the talint/2 JSON schema,
   and a run over the real tree asserting the gate is green. *)

let fixture_dir () =
  (* cwd is _build/default/test under [dune runtest] but the project root
     under [dune exec test/test_main.exe]; accept either. *)
  List.find_opt Sys.file_exists [ "lint_fixtures"; "test/lint_fixtures" ]

let fixture_path name =
  match fixture_dir () with
  | None -> Alcotest.fail "lint_fixtures directory not found"
  | Some dir -> Filename.concat dir name

let read_fixture name =
  In_channel.with_open_bin (fixture_path name) In_channel.input_all

let check_fixture ?(role = Lint.Rules.Lib "fixture") ?(mli_exists = true) name =
  Lint.Rules.check
    { Lint.Rules.role; file = name; source = read_fixture name; mli_exists }

let check_source ?(role = Lint.Rules.Lib "fixture") ?(mli_exists = true) source =
  Lint.Rules.check { Lint.Rules.role; file = "inline.ml"; source; mli_exists }

let rules fs = List.map (fun f -> f.Lint.Finding.rule) fs

let pos f =
  (f.Lint.Finding.rule, f.Lint.Finding.line, f.Lint.Finding.col)

let span f =
  (f.Lint.Finding.rule, f.Lint.Finding.file, f.Lint.Finding.line,
   f.Lint.Finding.col)

let rules_t = Alcotest.(list string)
let span_t = Alcotest.(list (pair (pair string string) (pair int int)))
let spans fs = List.map (fun f -> let r, fi, l, c = span f in ((r, fi), (l, c))) fs

let contains hay needle =
  let n = String.length hay and m = String.length needle in
  let rec go k = k + m <= n && (String.sub hay k m = needle || go (k + 1)) in
  m = 0 || go 0

(* --- positive fixtures: rule id AND location must be exact --- *)

let test_positive_fixtures () =
  Alcotest.(check (list (triple string int int)))
    "d001_bad: both Random uses, exact spans"
    [ ("D001", 2, 14); ("D001", 3, 16) ]
    (List.map pos (check_fixture "d001_bad.ml"));
  Alcotest.(check (list (triple string int int)))
    "d002_bad: wall-clock read" [ ("D002", 2, 15) ]
    (List.map pos (check_fixture "d002_bad.ml"));
  Alcotest.(check (list (triple string int int)))
    "d003_bad: stdout print" [ ("D003", 2, 15) ]
    (List.map pos (check_fixture "d003_bad.ml"));
  Alcotest.(check (list (triple string int int)))
    "d004_bad: floatarray ordered compare + polymorphic compare"
    [ ("D004", 1, 17); ("D004", 2, 14) ]
    (List.map pos (check_fixture ~role:(Lint.Rules.Lib "stats") "d004_bad.ml"));
  Alcotest.(check (list (triple string int int)))
    "r001_bad: toplevel mutable" [ ("R001", 2, 12) ]
    (List.map pos (check_fixture "r001_bad.ml"));
  Alcotest.(check (list (triple string int int)))
    "r001_fleet_bad: naive global fleet accumulators"
    [ ("R001", 3, 20); ("R001", 4, 21) ]
    (List.map pos (check_fixture "r001_fleet_bad.ml"));
  Alcotest.(check (list (triple string int int)))
    "p001_bad: ad-hoc Marshal" [ ("P001", 2, 13) ]
    (List.map pos (check_fixture "p001_bad.ml"));
  Alcotest.check rules_t "s001_bad: missing .mli" [ "S001" ]
    (rules (check_fixture ~mli_exists:false "s001_bad.ml"));
  Alcotest.(check (list (triple string int int)))
    "s002_bad: failwith" [ ("S002", 2, 15) ]
    (List.map pos (check_fixture "s002_bad.ml"))

let test_negative_fixtures () =
  List.iter
    (fun name ->
      Alcotest.check rules_t (name ^ " is clean") []
        (rules (check_fixture name)))
    [ "d001_ok.ml"; "d002_ok.ml"; "d003_ok.ml"; "p001_ok.ml"; "r001_ok.ml";
      "r001_shard_ok.ml"; "r001_fleet_ok.ml"; "s001_ok.ml"; "s002_ok.ml" ];
  (* D004 negatives: Float.compare is the fix; ordered ops on a float
     literal compile to specialised code and stay silent; the rule is
     scoped to lib/stats and lib/adversary. *)
  Alcotest.check rules_t "d004_ok is clean in lib/stats" []
    (rules (check_fixture ~role:(Lint.Rules.Lib "stats") "d004_ok.ml"));
  Alcotest.check rules_t "d004_bad is out of scope in lib/desim" []
    (rules (check_fixture ~role:(Lint.Rules.Lib "desim") "d004_bad.ml"))

(* --- suppression comments --- *)

let test_suppression () =
  Alcotest.check rules_t "directives silence both violations" []
    (rules (check_fixture "suppressed.ml"));
  (* The directive is load-bearing: strip the word "allow" and the same
     source reports both toplevel refs. *)
  let stripped =
    Str.global_replace (Str.regexp_string "talint: allow") "x"
      (read_fixture "suppressed.ml")
  in
  Alcotest.check rules_t "stripped directives expose the findings"
    [ "R001"; "R001" ]
    (rules (check_source stripped));
  (* S001 is file-scope: a directive anywhere in the file counts. *)
  Alcotest.check rules_t "S001 suppressed from the file body" []
    (rules
       (check_source ~mli_exists:false
          "let x = 1\n\n(* talint: allow S001 — generated module *)\nlet y = 2\n"));
  (* A directive two lines above the offender does NOT reach it. *)
  Alcotest.check rules_t "directive out of range" [ "R001" ]
    (rules
       (check_source
          "(* talint: allow R001 — too far away *)\n\nlet cache = Hashtbl.create 4\n"))

(* --- role exemptions --- *)

let test_role_exemptions () =
  let clock = "let t0 = Unix.gettimeofday ()\n" in
  Alcotest.check rules_t "bench may read the wall clock" []
    (rules (check_source ~role:Lint.Rules.Bench clock));
  Alcotest.check rules_t "lib/obs may read the wall clock" []
    (rules (check_source ~role:(Lint.Rules.Lib "obs") clock));
  Alcotest.check rules_t "other lib dirs may not" [ "D002" ]
    (rules (check_source ~role:(Lint.Rules.Lib "desim") clock));
  Alcotest.check rules_t "bin owns stdout and failwith" []
    (rules
       (check_source ~role:Lint.Rules.Bin
          "let () = print_endline \"hi\"\nlet f () = failwith \"cli\"\n"));
  Alcotest.check rules_t "lib/prng may wrap Random" []
    (rules (check_source ~role:(Lint.Rules.Lib "prng") "let r = Random.bits\n"));
  Alcotest.check rules_t "but self_init is banned even there" [ "D001" ]
    (rules
       (check_source ~role:(Lint.Rules.Lib "prng")
          "let f () = Random.self_init ()\n"));
  Alcotest.check rules_t "lib/obs owns its registries" []
    (rules
       (check_source ~role:(Lint.Rules.Lib "obs")
          "let registry = Hashtbl.create 8\n"));
  let marshal = "let f v = Marshal.to_string v []\n" in
  Alcotest.check rules_t "lib/exec owns Marshal" []
    (rules (check_source ~role:(Lint.Rules.Lib "exec") marshal));
  Alcotest.check rules_t "bin may not Marshal" [ "P001" ]
    (rules (check_source ~role:Lint.Rules.Bin marshal));
  Alcotest.check rules_t "bench may not Marshal" [ "P001" ]
    (rules (check_source ~role:Lint.Rules.Bench marshal))

let test_parse_error () =
  Alcotest.check rules_t "unparseable file reports E000" [ "E000" ]
    (rules (check_source "let = ) ="))

(* --- the fixture trees: one seeded violation per whole-program pass --- *)

let run_tree ?cache_path name =
  Lint.Driver.run ?cache_path ~root:(fixture_path name) ()

let test_tree_e001 () =
  let r = run_tree "tree_e001" in
  Alcotest.check span_t "one E001 at the exported entry point"
    [ (("E001", "lib/demo/api.ml"), (1, 0)) ]
    (spans r.Lint.Driver.findings);
  let msg = (List.hd r.Lint.Driver.findings).Lint.Finding.message in
  Alcotest.(check bool)
    "message names the exception" true (contains msg "may raise Boom");
  Alcotest.(check bool)
    "witness chain crosses both hops" true
    (contains msg "Api.entry -> Mid.relay -> Deep.boom_if")
(* [Api.safe] catches Boom and [Mid]/[Deep] declare it in their doc
   contracts, so the only finding is the undocumented [Api.entry]. *)

let test_tree_t001 () =
  let r = run_tree "tree_t001" in
  Alcotest.check span_t "one T001 at the fan-out call site"
    [ (("T001", "lib/work/job.ml"), (1, 13)) ]
    (spans r.Lint.Driver.findings);
  let msg = (List.hd r.Lint.Driver.findings).Lint.Finding.message in
  Alcotest.(check bool)
    "sink is the helper's clock read" true
    (contains msg "wall-clock read (Unix.gettimeofday) at lib/work/clockish.ml:2");
  Alcotest.(check bool)
    "call chain goes through the helper" true
    (contains msg "Job.run -> Clockish.read")

let test_tree_a001 () =
  let r = run_tree "tree_a001" in
  Alcotest.check span_t "one A001 in the hot-path callee"
    [ (("A001", "lib/hot/util.ml"), (1, 23)) ]
    (spans r.Lint.Driver.findings);
  let msg = (List.hd r.Lint.Driver.findings).Lint.Finding.message in
  Alcotest.(check bool)
    "closure attributed to the manifest root" true
    (contains msg "closure allocates in Util.bump (reached from hot path Hot.step)")

let test_tree_m001 () =
  let r = run_tree "tree_m001" in
  Alcotest.check span_t "one M001 at the second registration"
    [ (("M001", "bin/second.ml"), (1, 11)) ]
    (spans r.Lint.Driver.findings);
  let msg = (List.hd r.Lint.Driver.findings).Lint.Finding.message in
  Alcotest.(check bool)
    "message names the first registration" true
    (contains msg
       "metric demo.sent is already registered at bin/first.ml:1")

let test_tree_m001_ok () =
  Alcotest.(check (list string))
    "distinct labels and an allowed duplicate are clean" []
    (List.map Lint.Finding.to_string
       (run_tree "tree_m001_ok").Lint.Driver.findings)

let test_tree_u001 () =
  let r = run_tree "tree_u001" in
  Alcotest.check span_t "the dead export and the export only it calls"
    [ (("U001", "lib/demo/api.ml"), (3, 0)); (("U001", "lib/demo/util.ml"), (1, 0)) ]
    (spans r.Lint.Driver.findings);
  Alcotest.(check bool)
    "message names the export" true
    (contains (List.hd r.Lint.Driver.findings).Lint.Finding.message
       "exported Api.dead is reached by no executable")

let test_tree_u001_ok () =
  let r = run_tree "tree_u001_ok" in
  Alcotest.(check (list string))
    "reached through an open, from examples/ and an init block, or waived"
    [] (List.map Lint.Finding.to_string r.Lint.Driver.findings);
  Alcotest.(check int) "root-only files are summarised" 4 r.Lint.Driver.files;
  Alcotest.(check int)
    "perfbench/'s open resolves" 0
    r.Lint.Driver.cg.Lint.Callgraph.cg_unresolved

let test_deterministic_order () =
  let a = run_tree "tree_t001" and b = run_tree "tree_t001" in
  Alcotest.(check (list string))
    "two runs render identically"
    (List.map Lint.Finding.to_string a.Lint.Driver.findings)
    (List.map Lint.Finding.to_string b.Lint.Driver.findings);
  let r = run_tree "tree_e001" in
  Alcotest.(check bool)
    "findings come out sorted" true
    (let fs = r.Lint.Driver.findings in
     List.sort Lint.Finding.compare fs = fs)

(* --- the baseline waiver workflow --- *)

let with_tree_copy name f =
  let dir = Filename.temp_file "talint_tree" "" in
  Sys.remove dir;
  ignore
    (Sys.command
       (Printf.sprintf "cp -r %s %s"
          (Filename.quote (fixture_path name))
          (Filename.quote dir))
      : int);
  Fun.protect
    ~finally:(fun () ->
      ignore
        (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)) : int))
    (fun () -> f dir)

let write_file path text =
  Out_channel.with_open_bin path (fun oc -> output_string oc text)

let test_baseline_waivers () =
  (* tree_a001's copy already carries lint/hot_paths.txt, so dropping a
     BASELINE.json next to it exercises the full driver wiring. *)
  with_tree_copy "tree_a001" (fun dir ->
      let baseline = Filename.concat dir "lint/BASELINE.json" in
      (* 1. a matching waiver demotes the finding to baselined *)
      write_file baseline
        {|{"schema":"talint-baseline/1","waivers":[
           {"rule":"A001","file":"lib/hot/util.ml",
            "contains":"closure allocates","reason":"fixture waiver"}]}|};
      let r = Lint.Driver.run ~root:dir () in
      Alcotest.check span_t "no live findings" [] (spans r.Lint.Driver.findings);
      Alcotest.check span_t "the A001 is baselined, still reported"
        [ (("A001", "lib/hot/util.ml"), (1, 23)) ]
        (spans r.Lint.Driver.baselined);
      (* 2. a stale waiver is itself a live B001 at its array index *)
      write_file baseline
        {|{"schema":"talint-baseline/1","waivers":[
           {"rule":"A001","file":"lib/hot/util.ml",
            "contains":"closure allocates","reason":"fixture waiver"},
           {"rule":"T001","file":"lib/hot/hot.ml",
            "contains":"never matches","reason":"stale"}]}|};
      let r = Lint.Driver.run ~root:dir () in
      Alcotest.check span_t "stale waiver surfaces as B001"
        [ (("B001", "lint/BASELINE.json"), (2, 0)) ]
        (spans r.Lint.Driver.findings);
      (* 3. a waiver without a reason is malformed *)
      write_file baseline
        {|{"schema":"talint-baseline/1","waivers":[
           {"rule":"A001","file":"lib/hot/util.ml",
            "contains":"closure allocates"}]}|};
      let r = Lint.Driver.run ~root:dir () in
      Alcotest.(check bool)
        "malformed waiver surfaces as B001" true
        (List.exists
           (fun f ->
             f.Lint.Finding.rule = "B001"
             && contains f.Lint.Finding.message "malformed")
           r.Lint.Driver.findings))

(* --- the incremental summary cache --- *)

let test_incremental_cache () =
  with_tree_copy "tree_e001" (fun dir ->
      let cache = Filename.temp_file "talint_cache" ".json" in
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists cache then Sys.remove cache)
        (fun () ->
          let r1 = Lint.Driver.run ~cache_path:cache ~root:dir () in
          Alcotest.(check (pair int int))
            "cold run parses everything" (0, 4)
            (r1.Lint.Driver.cache_hits, r1.Lint.Driver.cache_misses);
          let r2 = Lint.Driver.run ~cache_path:cache ~root:dir () in
          Alcotest.(check (pair int int))
            "warm run parses nothing" (4, 0)
            (r2.Lint.Driver.cache_hits, r2.Lint.Driver.cache_misses);
          Alcotest.check span_t "warm findings identical"
            (spans r1.Lint.Driver.findings)
            (spans r2.Lint.Driver.findings);
          (* editing the .mli must invalidate the .ml's summary: the doc
             contract feeds E001 *)
          let mli = Filename.concat dir "lib/demo/api.mli" in
          let old = In_channel.with_open_bin mli In_channel.input_all in
          write_file mli (old ^ "\n(* touched *)\n");
          let r3 = Lint.Driver.run ~cache_path:cache ~root:dir () in
          Alcotest.(check (pair int int))
            "mli edit re-parses exactly that file" (3, 1)
            (r3.Lint.Driver.cache_hits, r3.Lint.Driver.cache_misses);
          Alcotest.check span_t "findings unchanged by a comment edit"
            (spans r1.Lint.Driver.findings)
            (spans r3.Lint.Driver.findings)))

(* The resolver reads top-level opens from cached summaries too: a warm
   run over tree_u001_ok stays clean only if they round-trip. *)
let test_cache_keeps_opens () =
  let s =
    Lint.Symtab.summarize ~role:Lint.Rules.Root_only ~lib:"" ~wrapped:true
      ~file:"perfbench/p.ml"
      ~source:"open Scenarios\nopen Exec.Pool\nlet f () = System.run ()\n"
      ~mli_source:None
  in
  let buf = Buffer.create 256 in
  Lint.Symtab.to_json_buf buf s;
  (match Obs.Json.of_string (Buffer.contents buf) with
  | Error msg -> Alcotest.fail msg
  | Ok j ->
      Alcotest.(check (list (list string)))
        "opens round-trip" [ [ "Scenarios" ]; [ "Exec"; "Pool" ] ]
        (Lint.Symtab.of_json j).Lint.Symtab.s_opens);
  with_tree_copy "tree_u001_ok" (fun dir ->
      let cache = Filename.temp_file "talint_cache" ".json" in
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists cache then Sys.remove cache)
        (fun () ->
          ignore (Lint.Driver.run ~cache_path:cache ~root:dir ());
          let warm = Lint.Driver.run ~cache_path:cache ~root:dir () in
          Alcotest.(check (pair int int))
            "warm run parses nothing" (4, 0)
            (warm.Lint.Driver.cache_hits, warm.Lint.Driver.cache_misses);
          Alcotest.(check (list string))
            "still clean from the cache" []
            (List.map Lint.Finding.to_string warm.Lint.Driver.findings)))

(* --- the talint/2 JSON report --- *)

let test_json_schema () =
  let summary = run_tree "tree_e001" in
  match Obs.Json.of_string (Lint.Driver.to_json summary) with
  | Error msg -> Alcotest.fail ("talint/2 report is not valid JSON: " ^ msg)
  | Ok json ->
      let member k = Obs.Json.member k json in
      Alcotest.(check bool)
        "schema is talint/2" true
        (member "schema" = Some (Obs.Json.Str "talint/2"));
      Alcotest.(check bool)
        "files_scanned" true
        (member "files_scanned" = Some (Obs.Json.Num 4.0));
      Alcotest.(check bool)
        "count" true
        (member "count" = Some (Obs.Json.Num 1.0));
      Alcotest.(check bool)
        "baselined count" true
        (member "baselined" = Some (Obs.Json.Num 0.0));
      (match member "cache" with
      | Some c ->
          Alcotest.(check bool)
            "cold cache stats" true
            (Obs.Json.member "hits" c = Some (Obs.Json.Num 0.0)
            && Obs.Json.member "misses" c = Some (Obs.Json.Num 4.0))
      | None -> Alcotest.fail "no cache object");
      (match member "callgraph" with
      | Some cg ->
          Alcotest.(check bool)
            "callgraph stats" true
            (Obs.Json.member "modules" cg = Some (Obs.Json.Num 4.0)
            && Obs.Json.member "unresolved" cg = Some (Obs.Json.Num 0.0))
      | None -> Alcotest.fail "no callgraph object");
      (match member "passes" with
      | Some (Obs.Json.Arr ps) ->
          let count id =
            List.find_map
              (fun p ->
                if Obs.Json.member "id" p = Some (Obs.Json.Str id) then
                  Obs.Json.member "count" p
                else None)
              ps
          in
          Alcotest.(check bool)
            "E001 pass counted" true (count "E001" = Some (Obs.Json.Num 1.0));
          Alcotest.(check bool)
            "T001/A001/U001/B001 passes listed" true
            (count "T001" <> None && count "A001" <> None
            && count "U001" = Some (Obs.Json.Num 0.0)
            && count "B001" <> None)
      | _ -> Alcotest.fail "passes is not an array");
      (match member "findings" with
      | Some (Obs.Json.Arr [ f ]) ->
          Alcotest.(check bool)
            "rule" true
            (Obs.Json.member "rule" f = Some (Obs.Json.Str "E001"));
          Alcotest.(check bool)
            "file" true
            (Obs.Json.member "file" f
            = Some (Obs.Json.Str "lib/demo/api.ml"));
          Alcotest.(check bool)
            "live finding carries baselined:false" true
            (Obs.Json.member "baselined" f = Some (Obs.Json.Bool false))
      | _ -> Alcotest.fail "findings is not a one-element array")

(* --- the real tree must be clean --- *)

let test_real_tree_clean () =
  match Lint.Driver.find_root () with
  | None -> Alcotest.fail "cannot locate the project root from the test cwd"
  | Some root ->
      let report = Lint.Driver.run ~root () in
      Alcotest.(check bool)
        "scanned a real tree (>= 80 files)" true
        (report.Lint.Driver.files >= 80);
      Alcotest.(check (list string))
        "zero unbaselined findings on the shipped tree" []
        (List.map Lint.Finding.to_string report.Lint.Driver.findings);
      let cg = report.Lint.Driver.cg in
      Alcotest.(check bool)
        "the call graph actually linked (>= 500 functions, >= 1000 edges)"
        true
        (cg.Lint.Callgraph.cg_functions >= 500
        && cg.Lint.Callgraph.cg_edges >= 1000);
      Alcotest.(check int)
        "every project-module call resolves" 0
        cg.Lint.Callgraph.cg_unresolved

(* --- CLI end-to-end: exit codes, talint/2 JSON, --rules --- *)

let talint_exe () =
  List.find_opt Sys.file_exists
    [ "../bin/talint.exe"; "_build/default/bin/talint.exe" ]

let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_cli_roundtrip () =
  match talint_exe () with
  | None -> Alcotest.skip ()
  | Some exe ->
      let dir = Filename.temp_file "talint_tree" "" in
      Sys.remove dir;
      ignore
        (Sys.command (Printf.sprintf "mkdir -p %s/lib/demo" (Filename.quote dir))
          : int);
      Fun.protect
        ~finally:(fun () ->
          ignore
            (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)) : int))
        (fun () ->
          Out_channel.with_open_bin (dir ^ "/dune-project") (fun oc ->
              output_string oc "(lang dune 3.0)\n");
          Out_channel.with_open_bin (dir ^ "/lib/demo/bad.ml") (fun oc ->
              output_string oc "let roll () = Random.int 6\n");
          let out = Filename.temp_file "talint_out" ".json" in
          Fun.protect
            ~finally:(fun () -> Sys.remove out)
            (fun () ->
              let code =
                Sys.command
                  (Printf.sprintf "%s --root %s --format json >%s 2>&1"
                     (Filename.quote exe) (Filename.quote dir)
                     (Filename.quote out))
              in
              Alcotest.(check int) "findings exit 1" 1 code;
              let json = read_file out in
              (match Obs.Json.of_string json with
              | Error msg -> Alcotest.fail ("not JSON: " ^ msg)
              | Ok j ->
                  Alcotest.(check bool)
                    "schema" true
                    (Obs.Json.member "schema" j = Some (Obs.Json.Str "talint/2"));
                  Alcotest.(check bool)
                    "two findings (D001 + S001)" true
                    (Obs.Json.member "count" j = Some (Obs.Json.Num 2.0)));
              let code2 =
                Sys.command
                  (Printf.sprintf "%s --format yaml >/dev/null 2>&1"
                     (Filename.quote exe))
              in
              Alcotest.(check int) "bad --format exits 2" 2 code2))

let test_cli_rules () =
  match talint_exe () with
  | None -> Alcotest.skip ()
  | Some exe ->
      let out = Filename.temp_file "talint_rules" ".txt" in
      Fun.protect
        ~finally:(fun () -> Sys.remove out)
        (fun () ->
          let code =
            Sys.command
              (Printf.sprintf "%s --rules >%s 2>&1" (Filename.quote exe)
                 (Filename.quote out))
          in
          Alcotest.(check int) "--rules exits 0" 0 code;
          let text = read_file out in
          List.iter
            (fun id ->
              Alcotest.(check bool)
                (id ^ " listed") true (contains text id))
            [ "D001"; "D004"; "E001"; "T001"; "A001"; "B001" ];
          let code =
            Sys.command
              (Printf.sprintf "%s --rules --format json >%s 2>&1"
                 (Filename.quote exe) (Filename.quote out))
          in
          Alcotest.(check int) "--rules --format json exits 0" 0 code;
          match Obs.Json.of_string (read_file out) with
          | Error msg -> Alcotest.fail ("rules JSON invalid: " ^ msg)
          | Ok j ->
              Alcotest.(check bool)
                "talint-rules/1 schema" true
                (Obs.Json.member "schema" j
                = Some (Obs.Json.Str "talint-rules/1"));
              (match Obs.Json.member "rules" j with
              | Some (Obs.Json.Arr rs) ->
                  Alcotest.(check bool)
                    "all rule ids have summaries" true
                    (List.for_all
                       (fun r ->
                         match
                           (Obs.Json.member "id" r, Obs.Json.member "summary" r)
                         with
                         | Some (Obs.Json.Str _), Some (Obs.Json.Str s) ->
                             String.length s > 0
                         | _ -> false)
                       rs)
              | _ -> Alcotest.fail "rules is not an array"))

(* [Exec.Pool] re-raises a task's exception as raised, so a raise inside
   a [Pool.both] thunk escapes the function that hands the thunk over. *)
let test_tree_e001_pool () =
  let r = run_tree "tree_e001_pool" in
  Alcotest.check span_t "one E001 at the function handing over the thunk"
    [ (("E001", "lib/demo/api.ml"), (1, 0)) ]
    (spans r.Lint.Driver.findings);
  let msg = (List.hd r.Lint.Driver.findings).Lint.Finding.message in
  Alcotest.(check bool)
    "witness chain enters the thunk" true
    (contains msg "may raise Boom (via Api.pair -> Deep.boom_if)")

let suite =
  [
    Alcotest.test_case "positive fixtures: exact rule + span" `Quick
      test_positive_fixtures;
    Alcotest.test_case "negative fixtures are clean" `Quick
      test_negative_fixtures;
    Alcotest.test_case "allow-comments suppress and expire" `Quick
      test_suppression;
    Alcotest.test_case "role exemptions (obs/prng/bin/bench)" `Quick
      test_role_exemptions;
    Alcotest.test_case "parse error reports E000" `Quick test_parse_error;
    Alcotest.test_case "E001: undeclared escape through two hops" `Quick
      test_tree_e001;
    Alcotest.test_case "T001: clock taint via a helper module" `Quick
      test_tree_t001;
    Alcotest.test_case "A001: closure alloc in a hot-path callee" `Quick
      test_tree_a001;
    Alcotest.test_case "finding order is deterministic" `Quick
      test_deterministic_order;
    Alcotest.test_case "baseline waivers: match, stale, malformed" `Quick
      test_baseline_waivers;
    Alcotest.test_case "incremental cache: warm hits, mli invalidates" `Quick
      test_incremental_cache;
    Alcotest.test_case "talint/2 JSON schema" `Quick test_json_schema;
    Alcotest.test_case "real tree has zero unbaselined findings" `Quick
      test_real_tree_clean;
    Alcotest.test_case "CLI: exit 1 + JSON on violations, 2 on bad flags"
      `Quick test_cli_roundtrip;
    Alcotest.test_case "CLI: --rules in text and JSON" `Quick test_cli_rules;
    Alcotest.test_case "M001: a metric registered twice" `Quick
      test_tree_m001;
    Alcotest.test_case "M001: distinct (name, label) pairs are clean" `Quick
      test_tree_m001_ok;
    Alcotest.test_case "U001: unreached exports, transitively" `Quick
      test_tree_u001;
    Alcotest.test_case "U001: roots via open, examples/, init; waivers" `Quick
      test_tree_u001_ok;
    Alcotest.test_case "U001: top-level opens survive the cache" `Quick
      test_cache_keeps_opens;
    Alcotest.test_case "E001: a raise inside a Pool.both thunk escapes" `Quick
      test_tree_e001_pool;
  ]
