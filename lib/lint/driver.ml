(* Tree walker, incremental summary cache, whole-program pipeline and
   report rendering.  The driver never prints by itself (that would trip
   D003); bin/talint.ml owns stdout.

   Pipeline: list .ml files -> load the summary cache (if any) -> parse
   and summarise only the files whose MD5 key changed -> rewrite the
   cache -> link the call graph -> run the whole-program passes (E001 /
   T001 / A001 / M001) -> apply lint/BASELINE.json waivers -> sort.  A warm run
   on an unchanged tree does no parsing at all. *)

exception Error of string

let find_root ?from () =
  let start = match from with Some d -> d | None -> Sys.getcwd () in
  let looks_like_root dir =
    Sys.file_exists (Filename.concat dir "dune-project")
    && (let lib = Filename.concat dir "lib" in
        Sys.file_exists lib && Sys.is_directory lib)
  in
  let rec up dir depth =
    if depth > 16 then None
    else if looks_like_root dir then Some dir
    else
      let parent = Filename.dirname dir in
      if String.equal parent dir then None else up parent (depth + 1)
  in
  up start 0

(* Walk one top-level subtree ([lib], [bin] or [bench]), returning
   root-relative paths of the .ml files, skipping dot- and
   underscore-prefixed entries (_build, .git, editor droppings). *)
let list_ml_files root sub =
  let rec go acc rel =
    let abs = Filename.concat root rel in
    if not (Sys.file_exists abs && Sys.is_directory abs) then acc
    else begin
      let entries = Sys.readdir abs in
      Array.sort String.compare entries;
      Array.fold_left
        (fun acc entry ->
          if String.length entry = 0 || entry.[0] = '.' || entry.[0] = '_' then
            acc
          else
            let rel' = rel ^ "/" ^ entry in
            let abs' = Filename.concat root rel' in
            if Sys.is_directory abs' then go acc rel'
            else if Filename.check_suffix entry ".ml" then rel' :: acc
            else acc)
        acc entries
    end
  in
  go [] sub

let role_of_rel rel =
  match String.split_on_char '/' rel with
  | "lib" :: sub :: _ :: _ -> Some (Rules.Lib sub)
  | "lib" :: _ -> Some (Rules.Lib "")
  | "bin" :: _ -> Some Rules.Bin
  | "bench" :: _ -> Some Rules.Bench
  | _ -> None

let read_file abs =
  match In_channel.with_open_bin abs In_channel.input_all with
  | s -> s
  | exception Sys_error msg -> raise (Error msg)

let read_file_opt abs =
  if Sys.file_exists abs then Some (read_file abs) else None

(* --- dune library layout ---

   A naive scan of each [lib/<dir>/dune] for [(name X)] and
   [(wrapped false)].  The library NAME is what callers alias
   (lib/core's library is [linkpad], so call paths say [Linkpad.]);
   unwrapped libraries expose their modules globally. *)

type lib_info = { li_name : string; li_wrapped : bool }

let scan_dune_libs root =
  let infos = Hashtbl.create 16 in
  let lib_dir = Filename.concat root "lib" in
  if Sys.file_exists lib_dir && Sys.is_directory lib_dir then
    Array.iter
      (fun sub ->
        let dune = Filename.concat (Filename.concat lib_dir sub) "dune" in
        if Sys.file_exists dune then begin
          let text = read_file dune in
          let find_field field =
            (* match "(field" then take the next token up to ')' or ws *)
            let pat = "(" ^ field in
            let n = String.length text and m = String.length pat in
            let rec go i =
              if i + m > n then None
              else if String.sub text i m = pat then begin
                let j = ref (i + m) in
                while
                  !j < n && (text.[!j] = ' ' || text.[!j] = '\n'
                             || text.[!j] = '\t')
                do
                  incr j
                done;
                let k = ref !j in
                while
                  !k < n && text.[!k] <> ')' && text.[!k] <> ' '
                  && text.[!k] <> '\n' && text.[!k] <> '\t'
                do
                  incr k
                done;
                if !k > !j then Some (String.sub text !j (!k - !j)) else None
              end
              else go (i + 1)
            in
            go 0
          in
          let name =
            match find_field "name" with Some n -> n | None -> sub
          in
          let wrapped =
            match find_field "wrapped" with
            | Some "false" -> false
            | _ -> true
          in
          Hashtbl.replace infos sub { li_name = name; li_wrapped = wrapped }
        end)
      (Sys.readdir lib_dir);
  infos

(* --- summary cache --- *)

let load_cache path =
  let table = Hashtbl.create 64 in
  (match read_file_opt path with
  | None -> ()
  | Some text -> (
      match Obs.Json.of_string text with
      | Error _ -> ()
      | Ok j -> (
          match (Obs.Json.member "schema" j, Obs.Json.member "entries" j) with
          | Some (Obs.Json.Str s), Some (Obs.Json.Arr entries)
            when s = Symtab.cache_schema -> (
              try
                List.iter
                  (fun ej ->
                    let sum = Symtab.of_json ej in
                    Hashtbl.replace table sum.Symtab.s_file sum)
                  entries
              with Symtab.Bad_cache -> Hashtbl.reset table)
          | _ -> ())))
  ;
  table

let write_cache path (summaries : Symtab.t list) =
  let buf = Buffer.create 65536 in
  Buffer.add_string buf
    (Printf.sprintf "{\"schema\":%S,\"entries\":[" Symtab.cache_schema);
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char buf ',';
      Symtab.to_json_buf buf s)
    summaries;
  Buffer.add_string buf "]}\n";
  try
    Out_channel.with_open_bin path (fun oc ->
        Out_channel.output_string oc (Buffer.contents buf))
  with Sys_error _ -> ()  (* an unwritable cache is a slow run, not an error *)

(* --- the pipeline --- *)

type summary = {
  root : string;
  files : int;
  cache_hits : int;
  cache_misses : int;
  cg : Callgraph.stats;
  pass_counts : (string * int) list;  (** live findings per source *)
  findings : Finding.t list;          (** live (unbaselined), sorted *)
  baselined : Finding.t list;         (** waived by lint/BASELINE.json *)
}

let hot_paths_file = "lint/hot_paths.txt"

(* M001: summaries arrive sorted by file, so the first registration of
   a key in path order is its owner and every later one is a finding. *)
let metric_once summaries =
  let owner = Hashtbl.create 64 in
  List.concat_map
    (fun (s : Symtab.t) ->
      let sup = Symtab.suppress s in
      List.filter_map
        (fun { Symtab.s_line = line; s_col; s_what = key } ->
          match Hashtbl.find_opt owner key with
          | None ->
              Hashtbl.add owner key (s.Symtab.s_file, line);
              None
          | Some _ when Suppress.allows sup ~line ~rule:"M001" -> None
          | Some (file, l) ->
              Some
                (Finding.v ~rule:"M001" ~file:s.Symtab.s_file ~line ~col:s_col
                   (Printf.sprintf
                      "metric %s is already registered at %s:%d; register it \
                       once, in its owning module, and publish elsewhere \
                       through that module's functions"
                      key file l)))
        s.Symtab.s_metrics)
    summaries

let run ?cache_path ~root () =
  if not (Sys.file_exists root && Sys.is_directory root) then
    raise (Error (Printf.sprintf "root %S is not a directory" root));
  let files =
    List.concat_map (list_ml_files root) [ "lib"; "bin"; "bench" ]
    |> List.sort String.compare
  in
  let libs = scan_dune_libs root in
  let cache =
    match cache_path with
    | Some p -> load_cache p
    | None -> Hashtbl.create 1
  in
  let hits = ref 0 and misses = ref 0 in
  let summaries =
    List.filter_map
      (fun rel ->
        match role_of_rel rel with
        | None -> None
        | Some role ->
            let abs = Filename.concat root rel in
            let source = read_file abs in
            let mli_source =
              read_file_opt (Filename.chop_suffix abs ".ml" ^ ".mli")
            in
            let key = Symtab.key ~source ~mli_source in
            (match Hashtbl.find_opt cache rel with
            | Some cached when cached.Symtab.s_key = key ->
                incr hits;
                Some cached
            | _ ->
                incr misses;
                let lib, wrapped =
                  match role with
                  | Rules.Lib sub -> (
                      match Hashtbl.find_opt libs sub with
                      | Some { li_name; li_wrapped } -> (li_name, li_wrapped)
                      | None -> (sub, true))
                  | Rules.Bin | Rules.Bench -> ("", true)
                in
                Some
                  (Symtab.summarize ~role ~lib ~wrapped ~file:rel ~source
                     ~mli_source)))
      files
  in
  (match cache_path with
  | Some p -> write_cache p summaries
  | None -> ());
  let graph = Callgraph.build summaries in
  let per_file =
    List.concat_map (fun s -> s.Symtab.s_findings) summaries
  in
  let manifest =
    Option.value
      (read_file_opt (Filename.concat root hot_paths_file))
      ~default:""
  in
  let e001 = Escape.run graph in
  let t001 = Taint.run graph in
  let a001 = Alloccheck.run graph ~manifest in
  let m001 = metric_once summaries in
  let baseline_text =
    read_file_opt (Filename.concat root Baseline.file_name)
  in
  let live, baselined =
    Baseline.apply ~text:baseline_text (per_file @ e001 @ t001 @ a001 @ m001)
  in
  let live = List.sort Finding.compare live in
  let baselined = List.sort Finding.compare baselined in
  let count_rule prefix =
    List.length (List.filter (fun f -> f.Finding.rule = prefix) live)
  in
  let pass_counts =
    [
      ( "file",
        List.length
          (List.filter
             (fun (f : Finding.t) ->
               not
                 (List.mem f.Finding.rule
                    [ "E001"; "T001"; "A001"; "M001"; "B001" ]))
             live) );
      ("E001", count_rule "E001");
      ("T001", count_rule "T001");
      ("A001", count_rule "A001");
      ("M001", count_rule "M001");
      ("B001", count_rule "B001");
    ]
  in
  {
    root;
    files = List.length files;
    cache_hits = !hits;
    cache_misses = !misses;
    cg = Callgraph.stats graph;
    pass_counts;
    findings = live;
    baselined;
  }

(* --- rendering --- *)

let json_escape = Obs.Json.escape

let finding_json buf ~baselined (f : Finding.t) =
  Buffer.add_string buf
    (Printf.sprintf
       "\n    {\"rule\": \"%s\", \"file\": \"%s\", \"line\": %d, \"col\": \
        %d, \"baselined\": %b, \"message\": \"%s\"}"
       (json_escape f.Finding.rule)
       (json_escape f.Finding.file)
       f.Finding.line f.Finding.col baselined
       (json_escape f.Finding.message))

let to_json t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n  \"schema\": \"talint/2\",\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"root\": \"%s\",\n" (json_escape t.root));
  Buffer.add_string buf (Printf.sprintf "  \"files_scanned\": %d,\n" t.files);
  Buffer.add_string buf
    (Printf.sprintf "  \"cache\": {\"hits\": %d, \"misses\": %d},\n"
       t.cache_hits t.cache_misses);
  Buffer.add_string buf
    (Printf.sprintf
       "  \"callgraph\": {\"modules\": %d, \"functions\": %d, \"edges\": %d, \
        \"unresolved\": %d},\n"
       t.cg.Callgraph.cg_modules t.cg.Callgraph.cg_functions
       t.cg.Callgraph.cg_edges t.cg.Callgraph.cg_unresolved);
  Buffer.add_string buf "  \"passes\": [";
  List.iteri
    (fun i (p, n) ->
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf (Printf.sprintf "{\"id\": \"%s\", \"count\": %d}" p n))
    t.pass_counts;
  Buffer.add_string buf "],\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"count\": %d,\n" (List.length t.findings));
  Buffer.add_string buf
    (Printf.sprintf "  \"baselined\": %d,\n" (List.length t.baselined));
  Buffer.add_string buf "  \"findings\": [";
  let first = ref true in
  List.iter
    (fun f ->
      if not !first then Buffer.add_char buf ',';
      first := false;
      finding_json buf ~baselined:false f)
    t.findings;
  List.iter
    (fun f ->
      if not !first then Buffer.add_char buf ',';
      first := false;
      finding_json buf ~baselined:true f)
    t.baselined;
  Buffer.add_string buf "\n  ]\n}\n";
  Buffer.contents buf

let pp_text ppf t =
  List.iter
    (fun f -> Format.fprintf ppf "%s@." (Finding.to_string f))
    t.findings;
  List.iter
    (fun f -> Format.fprintf ppf "%s (baselined)@." (Finding.to_string f))
    t.baselined;
  let n = List.length t.findings in
  Format.fprintf ppf
    "talint: %d file%s scanned, %d finding%s (%d baselined)@." t.files
    (if t.files = 1 then "" else "s")
    n
    (if n = 1 then "" else "s")
    (List.length t.baselined);
  Format.fprintf ppf
    "callgraph: %d modules, %d functions, %d edges (%d unresolved); cache: \
     %d hit%s, %d miss%s@."
    t.cg.Callgraph.cg_modules t.cg.Callgraph.cg_functions
    t.cg.Callgraph.cg_edges t.cg.Callgraph.cg_unresolved t.cache_hits
    (if t.cache_hits = 1 then "" else "s")
    t.cache_misses
    (if t.cache_misses = 1 then "" else "es")
