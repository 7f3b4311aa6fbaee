(* talint — the repo's determinism & domain-safety lint pass, now
   whole-program: per-file rules plus the cross-module call-graph passes
   (E001 exception escape, T001 transitive determinism, A001 zero-alloc
   hot paths, M001 one registration per metric, U001 exports no
   executable reaches) and the lint/BASELINE.json waiver workflow.

     dune build @lint                            # the usual gate
     dune exec bin/talint.exe -- --format json   # talint/2 report
     dune exec bin/talint.exe -- --cache /tmp/talint-cache.json
                                                 # warm runs skip parsing
     dune exec bin/talint.exe -- --rules         # list rule ids

   Exit codes: 0 clean (baselined findings do not count), 1 live
   findings, 2 bad CLI / unusable root. *)

let root = ref ""
let format = ref "text"
let list_rules = ref false
let cache = ref ""

let args =
  [
    ( "--root",
      Arg.Set_string root,
      "DIR project root to lint (default: auto-detect from dune-project)" );
    ( "--format",
      Arg.Symbol ([ "text"; "json" ], fun s -> format := s),
      " report format (json = schema talint/2)" );
    ( "--cache",
      Arg.Set_string cache,
      "PATH incremental summary cache (talint-cache/3); created if absent" );
    ("--rules", Arg.Set list_rules, " list rule ids and exit");
  ]

let rules_json () =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"schema\": \"talint-rules/1\",\n  \"rules\": [";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "\n    {\"id\": \"%s\", \"summary\": \"%s\"}"
           (Obs.Json.escape r.Lint.Rules.id)
           (Obs.Json.escape r.Lint.Rules.summary)))
    Lint.Rules.all_rules;
  Buffer.add_string buf "\n  ]\n}\n";
  Buffer.contents buf

let () =
  Arg.parse args
    (fun anon -> raise (Arg.Bad ("unexpected argument: " ^ anon)))
    "talint -- determinism & domain-safety lint over lib/, bin/ and bench/";
  if !list_rules then begin
    (match !format with
    | "json" -> print_string (rules_json ())
    | _ ->
        List.iter
          (fun r ->
            Printf.printf "%s  %s\n" r.Lint.Rules.id r.Lint.Rules.summary)
          Lint.Rules.all_rules);
    exit 0
  end;
  let root =
    if !root <> "" then !root
    else
      match Lint.Driver.find_root () with
      | Some r -> r
      | None ->
          prerr_endline
            "talint: cannot locate the project root (no dune-project found \
             above the current directory); pass --root DIR";
          exit 2
  in
  let cache_path = if !cache = "" then None else Some !cache in
  match Lint.Driver.run ?cache_path ~root () with
  | exception Lint.Driver.Error msg ->
      Printf.eprintf "talint: %s\n" msg;
      exit 2
  | report ->
      (match !format with
      | "json" -> print_string (Lint.Driver.to_json report)
      | _ -> Format.printf "%a" Lint.Driver.pp_text report);
      exit (if report.Lint.Driver.findings = [] then 0 else 1)
