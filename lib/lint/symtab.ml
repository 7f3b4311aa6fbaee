(* Per-file interprocedural summaries.

   [summarize] parses one .ml file with compiler-libs and extracts, for
   every module-level binding: the calls it makes (with argument counts,
   for partial-application detection), the exceptions it raises and
   catches, the allocation sites A001 cares about, and the D001/D002
   primitive uses the taint pass treats as sinks.  The result is
   file-local — no cross-file resolution happens here — which is what
   makes it cacheable: the incremental driver keys a summary on the MD5
   of (source + mli) and reuses it verbatim on warm runs.  [Callgraph]
   later links summaries into the whole-program view.

   Everything is syntactic (same compiler-libs-only footing as [Rules]):
   conservative in the non-flagging direction — calls through function
   values, record fields or functors are simply unresolved edges. *)

type site = { s_line : int; s_col : int; s_what : string }

type call = {
  callee : string list;
  args : int;
  c_line : int;
  c_col : int;
  c_defer : bool;
}
(* [args = 0]: a bare reference (the function escapes as a value; treated
   as a possible call by the reachability passes, never as a partial
   application).  [c_defer]: the call sits inside a closure passed to the
   supervision machinery (Sweep.mapi / Supervise.run / Pool fan-outs) —
   it runs under that machinery's catch-all classification, so the
   escape pass must not propagate its exceptions to the enclosing
   function; taint and alloc reachability still follow it (the task body
   is exactly what they audit). *)

type alloc_kind = Closure | List_lit | Array_lit | Record_lit | Float_box

let alloc_kind_to_string = function
  | Closure -> "closure"
  | List_lit -> "list literal"
  | Array_lit -> "array literal"
  | Record_lit -> "record literal"
  | Float_box -> "float-boxing polymorphic compare"

type alloc = { a_kind : alloc_kind; a_line : int; a_col : int; a_what : string }

type fn = {
  fn_path : string list;  (* submodule path within the file *)
  fn_name : string;       (* "(init)" for [let () = ...] blocks *)
  fn_arity : int;
  fn_opt : int;           (* optional parameters among [fn_arity] *)
  fn_line : int;
  fn_col : int;
  calls : call list;
  raises : string list;   (* dotted constructor paths raised directly *)
  catches : string list;  (* exception names caught; "*" = catch-all *)
  allocs : alloc list;
  rand_use : site option;   (* first D001-class primitive in the body *)
  clock_use : site option;  (* first D002-class primitive in the body *)
  mutates : site option;    (* first write to module-level mutable state *)
}

type t = {
  s_file : string;
  s_key : string;  (* MD5 of source + mli: the cache key *)
  s_role : Rules.role;
  s_lib : string;      (* dune library name; "" for bin/bench *)
  s_wrapped : bool;
  s_module : string;   (* capitalised module name of the file *)
  s_has_mli : bool;
  s_funcs : fn list;
  s_exceptions : string list;         (* exceptions declared in this .ml *)
  s_mli_vals : (string * string) list;  (* exported val -> attached doc *)
  s_opens : string list list;  (* top-level [open] paths, in source order *)
  s_suppress : (int * string) list;
  s_findings : Finding.t list;  (* per-file lexical findings, pre-filtered *)
  s_metrics : site list;  (* metric registrations; s_what = "name{k=v}" *)
  s_parsed : bool;  (* false: E000 — whole-program passes skip the file *)
}

let key ~source ~mli_source =
  Digest.to_hex
    (Digest.string
       (source ^ "\x00" ^ Option.value mli_source ~default:"\x01none"))

let module_name_of_file file =
  String.capitalize_ascii
    (Filename.remove_extension (Filename.basename file))

(* --- mutation heads: writes to a first-argument mutable container --- *)

let mutator = function
  | [ ":=" ] | [ "incr" ] | [ "decr" ] -> true
  | [ "Hashtbl"; ("add" | "replace" | "remove" | "reset" | "clear") ] -> true
  | [ "Queue"; ("push" | "add" | "pop" | "take" | "clear" | "transfer") ] ->
      true
  | [ "Stack"; ("push" | "pop" | "clear") ] -> true
  | [ "Buffer"; w ] ->
      String.length w >= 4 && String.sub w 0 4 = "add_"
      || w = "clear" || w = "reset" || w = "truncate"
  | [ ("Array" | "Bytes"); ("set" | "unsafe_set" | "fill" | "blit") ] -> true
  | [ "Float"; "Array"; ("set" | "unsafe_set" | "fill" | "blit") ] -> true
  | _ -> false

(* --- doc attributes on .mli items --- *)

let doc_of_attributes attrs =
  List.filter_map
    (fun (a : Parsetree.attribute) ->
      match a.attr_name.txt with
      | "ocaml.doc" | "doc" -> (
          match a.attr_payload with
          | Parsetree.PStr
              [ {
                  pstr_desc =
                    Pstr_eval
                      ( {
                          pexp_desc =
                            Pexp_constant (Pconst_string (s, _, _));
                          _;
                        },
                        _ );
                  _;
                } ] ->
              Some s
          | _ -> None)
      | _ -> None)
    attrs
  |> String.concat "\n"

let mli_vals mli_source file =
  match mli_source with
  | None -> []
  | Some src -> (
      let lexbuf = Lexing.from_string src in
      Location.init lexbuf (file ^ "i");
      match Parse.interface lexbuf with
      | exception _ -> []
      | items ->
          List.filter_map
            (fun (item : Parsetree.signature_item) ->
              match item.psig_desc with
              | Psig_value vd ->
                  Some
                    (vd.pval_name.txt, doc_of_attributes vd.pval_attributes)
              | _ -> None)
            items)

(* --- the structure walk --- *)

let pos_of loc =
  let p = loc.Location.loc_start in
  (p.Lexing.pos_lnum, max 0 (p.Lexing.pos_cnum - p.Lexing.pos_bol))

let exception_name (ext : Parsetree.extension_constructor) = ext.pext_name.txt

(* Collect the module-level mutable binding names first, so the body walk
   can recognise writes to them. *)
let toplevel_mutables structure =
  let names = ref [] in
  let is_state_alloc (e : Parsetree.expression) =
    match e.pexp_desc with
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
        match Rules.normalize txt with
        | [ "ref" ]
        | [ ("Hashtbl" | "Queue" | "Stack" | "Buffer" | "Weak"); "create" ]
        | [ "Array"; ("make" | "init" | "create_float" | "make_matrix") ]
        | [ "Bytes"; ("create" | "make") ] ->
            true
        | _ -> false)
    | Pexp_array (_ :: _) -> true
    | _ -> false
  in
  let rec go items =
    List.iter
      (fun (item : Parsetree.structure_item) ->
        match item.pstr_desc with
        | Pstr_value (_, bindings) ->
            List.iter
              (fun (vb : Parsetree.value_binding) ->
                match (vb.pvb_pat.ppat_desc, vb.pvb_expr.pexp_desc) with
                | Ppat_var { txt; _ }, _ when is_state_alloc vb.pvb_expr ->
                    names := txt :: !names
                | _ -> ())
              bindings
        | Pstr_module
            { pmb_expr = { pmod_desc = Pmod_structure items'; _ }; _ } ->
            go items'
        | _ -> ())
      items
  in
  go structure;
  !names

type collector = {
  mutable calls : call list;
  mutable raises : string list;
  mutable catches : string list;
  mutable allocs : alloc list;
  mutable rand : site option;
  mutable clock : site option;
  mutable mut : site option;
}

let collect ~mutables body_exprs =
  let c =
    {
      calls = [];
      raises = [];
      catches = [];
      allocs = [];
      rand = None;
      clock = None;
      mut = None;
    }
  in
  let in_raise = ref false in
  let in_list = ref false in
  (* Inside the argument list of a supervision-machinery call / inside a
     closure within such an argument list: see [c_defer]. *)
  let in_supervised = ref false in
  let deferred = ref false in
  let site loc what =
    let l, col = pos_of loc in
    { s_line = l; s_col = col; s_what = what }
  in
  let add_alloc kind loc what =
    if not !in_raise then
      let l, col = pos_of loc in
      c.allocs <- { a_kind = kind; a_line = l; a_col = col; a_what = what }
                  :: c.allocs
  in
  let prim path loc =
    (match path with
    | "Random" :: _ when c.rand = None ->
        c.rand <- Some (site loc (Rules.dotted path))
    | _ -> ());
    if c.clock = None && List.mem path Rules.time_idents then
      c.clock <- Some (site loc (Rules.dotted path))
  in
  let record_call path n loc =
    let l, col = pos_of loc in
    c.calls <-
      { callee = path; args = n; c_line = l; c_col = col; c_defer = !deferred }
      :: c.calls
  in
  (* The entry points whose contract is "task exceptions are caught and
     classified, never re-raised raw": closures handed to them defer. *)
  let supervised path =
    match List.rev path with
    | "mapi" :: "Sweep" :: _ -> true
    | ("run" | "with_event_budget") :: "Supervise" :: _ -> true
    | ("parallel_map" | "parallel_init" | "both" | "with_jobs") :: "Pool" :: _
      ->
        true
    | _ -> false
  in
  let catch_of_pattern (p : Parsetree.pattern) =
    let rec go (p : Parsetree.pattern) acc =
      match p.ppat_desc with
      | Ppat_construct ({ txt; _ }, _) -> (
          match Rules.normalize txt with
          | [] -> acc
          | path -> List.nth path (List.length path - 1) :: acc)
      | Ppat_or (a, b) -> go a (go b acc)
      | Ppat_alias (p, _) -> go p acc
      | Ppat_any | Ppat_var _ -> "*" :: acc
      | _ -> acc
    in
    go p []
  in
  let default = Ast_iterator.default_iterator in
  let rec expr it (e : Parsetree.expression) =
    match e.pexp_desc with
    | Pexp_ident { txt; loc } ->
        let path = Rules.normalize txt in
        prim path loc;
        record_call path 0 loc
    | Pexp_apply
        ({ pexp_desc = Pexp_ident { txt; loc }; _ }, args) -> (
        let path = Rules.normalize txt in
        prim path loc;
        (match Rules.float_polycmp e with
        | Some op ->
            add_alloc Float_box e.pexp_loc
              (Printf.sprintf "polymorphic %s on float operands" op)
        | None -> ());
        match path with
        | [ ("raise" | "raise_notrace") ] ->
            (match args with
            | (_, { Parsetree.pexp_desc = Pexp_construct ({ txt; _ }, _); _ })
              :: _
              when not !deferred ->
                c.raises <- Rules.dotted (Rules.normalize txt) :: c.raises
            | _ -> ());
            let saved = !in_raise in
            in_raise := true;
            List.iter (fun (_, a) -> expr it a) args;
            in_raise := saved
        | [ "invalid_arg" ] | [ "failwith" ] ->
            if not !deferred then
              c.raises <-
                (if path = [ "invalid_arg" ] then "Invalid_argument"
                 else "Failure")
                :: c.raises;
            let saved = !in_raise in
            in_raise := true;
            List.iter (fun (_, a) -> expr it a) args;
            in_raise := saved
        | _ ->
            record_call path (List.length args) loc;
            (match (path, args) with
            | mpath, (_, { Parsetree.pexp_desc = Pexp_ident { txt = Lident v; _ }; _ }) :: _
              when mutator mpath && List.mem v mutables && c.mut = None ->
                c.mut <-
                  Some
                    (site loc
                       (Printf.sprintf "%s on module-level %s"
                          (Rules.dotted mpath) v))
            | _ -> ());
            let saved = !in_supervised in
            if supervised path then in_supervised := true;
            List.iter (fun (_, a) -> expr it a) args;
            in_supervised := saved)
    | Pexp_setfield
        (({ pexp_desc = Pexp_ident { txt = Lident v; loc }; _ } as r), _, v')
      ->
        if List.mem v mutables && c.mut = None then
          c.mut <- Some (site loc ("field write on module-level " ^ v));
        expr it r;
        expr it v'
    | Pexp_fun (_, default_arg, _, body) ->
        add_alloc Closure e.pexp_loc "anonymous function";
        let saved = !deferred in
        if !in_supervised then deferred := true;
        Option.iter (expr it) default_arg;
        expr it body;
        deferred := saved
    | Pexp_function cases ->
        add_alloc Closure e.pexp_loc "anonymous function";
        let saved = !deferred in
        if !in_supervised then deferred := true;
        List.iter (case it) cases;
        deferred := saved
    | Pexp_construct ({ txt = Lident "::"; _ }, arg) ->
        if not !in_list then
          add_alloc List_lit e.pexp_loc "non-empty list";
        let saved = !in_list in
        in_list := true;
        Option.iter (expr it) arg;
        in_list := saved
    | Pexp_array (_ :: _ as els) ->
        add_alloc Array_lit e.pexp_loc
          (Printf.sprintf "%d-element array" (List.length els));
        List.iter (expr it) els
    | Pexp_record (fields, base) ->
        add_alloc Record_lit e.pexp_loc "record";
        List.iter (fun (_, v) -> expr it v) fields;
        Option.iter (expr it) base
    | Pexp_try (body, cases) ->
        c.catches <-
          List.concat_map (fun (cs : Parsetree.case) -> catch_of_pattern cs.pc_lhs) cases
          @ c.catches;
        expr it body;
        List.iter (case it) cases
    | Pexp_match (scrut, cases) ->
        List.iter
          (fun (cs : Parsetree.case) ->
            match cs.pc_lhs.ppat_desc with
            | Ppat_exception p -> c.catches <- catch_of_pattern p @ c.catches
            | _ -> ())
          cases;
        expr it scrut;
        List.iter (case it) cases
    | _ -> default.Ast_iterator.expr it e
  and case it (cs : Parsetree.case) =
    Option.iter (expr it) cs.pc_guard;
    expr it cs.pc_rhs
  in
  let iter = { default with Ast_iterator.expr } in
  List.iter (fun e -> iter.Ast_iterator.expr iter e) body_exprs;
  c

(* Strip the leading curried parameters off a binding: returns arity,
   optional-parameter count, and the body expressions to walk (several
   when the final parameter is a [function] match or a parameter carries
   a default). *)
let strip_params e =
  let rec go (e : Parsetree.expression) arity opt extras =
    match e.pexp_desc with
    | Pexp_fun (label, default, _, body) ->
        let opt =
          match label with Asttypes.Optional _ -> opt + 1 | _ -> opt
        in
        let extras =
          match default with Some d -> d :: extras | None -> extras
        in
        go body (arity + 1) opt extras
    | Pexp_newtype (_, body) -> go body arity opt extras
    | Pexp_function cases ->
        ( arity + 1,
          opt,
          List.rev_append extras
            (List.concat_map
               (fun (cs : Parsetree.case) ->
                 (match cs.pc_guard with Some g -> [ g ] | None -> [])
                 @ [ cs.pc_rhs ])
               cases) )
    | _ -> (arity, opt, List.rev (e :: extras))
  in
  go e 0 0 []

(* --- metric registrations (M001) ---

   [Metrics.{counter,gauge,histogram} "name"] registers the key "name",
   [Metrics.counter_labeled "name" ~label:("k", "v")] the key
   "name{k=v}", the form the registry snapshot prints.  Only string
   literals are seen. *)

let metric_registrations structure =
  let sites = ref [] in
  let lit (e : Parsetree.expression) =
    match e.pexp_desc with
    | Pexp_constant (Pconst_string (s, _, _)) -> Some s
    | _ -> None
  in
  let arg label args =
    List.find_map (fun (l, a) -> if l = label then Some a else None) args
  in
  let key path args =
    match (List.rev path, Option.bind (arg Asttypes.Nolabel args) lit) with
    | ("counter" | "gauge" | "histogram") :: "Metrics" :: _, name -> name
    | "counter_labeled" :: "Metrics" :: _, Some name -> (
        match arg (Asttypes.Labelled "label") args with
        | Some { pexp_desc = Pexp_tuple [ k; v ]; _ } -> (
            match (lit k, lit v) with
            | Some k, Some v -> Some (Printf.sprintf "%s{%s=%s}" name k v)
            | _ -> None)
        | _ -> None)
    | _ -> None
  in
  let default = Ast_iterator.default_iterator in
  let expr it (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; loc }; _ }, args) ->
        Option.iter
          (fun k ->
            let line, col = pos_of loc in
            sites := { s_line = line; s_col = col; s_what = k } :: !sites)
          (key (Rules.normalize txt) args)
    | _ -> ());
    default.Ast_iterator.expr it e
  in
  let iter = { default with Ast_iterator.expr } in
  iter.Ast_iterator.structure iter structure;
  List.rev !sites

let summarize ~role ~lib ~wrapped ~file ~source ~mli_source =
  let findings =
    if role = Rules.Root_only then []
    else
      Rules.check
        { Rules.role; file; source; mli_exists = mli_source <> None }
  in
  let sup = Suppress.scan source in
  let parsed, structure =
    let lexbuf = Lexing.from_string source in
    Location.init lexbuf file;
    match Parse.implementation lexbuf with
    | ast -> (true, ast)
    | exception _ -> (false, [])
  in
  let mutables = toplevel_mutables structure in
  let funcs = ref [] in
  let exceptions = ref [] in
  let opens = ref [] in
  let add_fn path name loc expr_ =
    let arity, opt, bodies = strip_params expr_ in
    let line, col = pos_of loc in
    let c = collect ~mutables bodies in
    funcs :=
      {
        fn_path = path;
        fn_name = name;
        fn_arity = arity;
        fn_opt = opt;
        fn_line = line;
        fn_col = col;
        calls = List.rev c.calls;
        raises = List.sort_uniq String.compare c.raises;
        catches = List.sort_uniq String.compare c.catches;
        allocs = List.rev c.allocs;
        rand_use = c.rand;
        clock_use = c.clock;
        mutates = c.mut;
      }
      :: !funcs
  in
  let rec walk_structure path items =
    List.iter
      (fun (item : Parsetree.structure_item) ->
        match item.pstr_desc with
        | Pstr_value (_, bindings) ->
            List.iter
              (fun (vb : Parsetree.value_binding) ->
                let rec name_of (p : Parsetree.pattern) =
                  match p.ppat_desc with
                  | Ppat_var { txt; _ } -> Some txt
                  | Ppat_constraint (p, _) -> name_of p
                  | Ppat_construct ({ txt = Lident "()"; _ }, None)
                  | Ppat_any ->
                      Some "(init)"
                  | _ -> None
                in
                match name_of vb.pvb_pat with
                | Some name -> add_fn path name vb.pvb_loc vb.pvb_expr
                | None -> ())
              bindings
        | Pstr_eval (e, _) -> add_fn path "(init)" item.pstr_loc e
        | Pstr_module
            {
              pmb_name = { txt = Some m; _ };
              pmb_expr = { pmod_desc = Pmod_structure items'; _ };
              _;
            } ->
            walk_structure (path @ [ m ]) items'
        | Pstr_exception te ->
            exceptions :=
              exception_name te.ptyexn_constructor :: !exceptions
        | Pstr_open { popen_expr = { pmod_desc = Pmod_ident { txt; _ }; _ }; _ }
          when path = [] ->
            opens := Rules.normalize txt :: !opens
        | _ -> ())
      items
  in
  walk_structure [] structure;
  {
    s_file = file;
    s_key = key ~source ~mli_source;
    s_role = role;
    s_lib = lib;
    s_wrapped = wrapped;
    s_module = module_name_of_file file;
    s_has_mli = mli_source <> None;
    s_funcs = List.rev !funcs;
    s_exceptions = List.sort_uniq String.compare !exceptions;
    s_mli_vals = mli_vals mli_source file;
    s_opens = List.rev !opens;
    s_suppress = Suppress.entries sup;
    s_findings = findings;
    s_metrics = metric_registrations structure;
    s_parsed = parsed;
  }

let suppress t = Suppress.of_entries t.s_suppress

(* --- cache (de)serialisation: talint-cache/3 --- *)

let cache_schema = "talint-cache/3"

let jstr s = "\"" ^ Obs.Json.escape s ^ "\""

let site_json buf = function
  | None -> Buffer.add_string buf "null"
  | Some s ->
      Buffer.add_string buf
        (Printf.sprintf "{\"l\":%d,\"c\":%d,\"w\":%s}" s.s_line s.s_col
           (jstr s.s_what))

let fn_json buf f =
  Buffer.add_string buf
    (Printf.sprintf "{\"path\":%s,\"name\":%s,\"arity\":%d,\"opt\":%d,\"l\":%d,\"c\":%d"
       (jstr (String.concat "." f.fn_path))
       (jstr f.fn_name) f.fn_arity f.fn_opt f.fn_line f.fn_col);
  Buffer.add_string buf ",\"calls\":[";
  List.iteri
    (fun i cl ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "{\"p\":%s,\"a\":%d,\"l\":%d,\"c\":%d,\"d\":%b}"
           (jstr (String.concat "." cl.callee))
           cl.args cl.c_line cl.c_col cl.c_defer))
    f.calls;
  Buffer.add_string buf "],\"raises\":[";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (jstr r))
    f.raises;
  Buffer.add_string buf "],\"catches\":[";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (jstr r))
    f.catches;
  Buffer.add_string buf "],\"allocs\":[";
  List.iteri
    (fun i a ->
      if i > 0 then Buffer.add_char buf ',';
      let k =
        match a.a_kind with
        | Closure -> "closure"
        | List_lit -> "list"
        | Array_lit -> "array"
        | Record_lit -> "record"
        | Float_box -> "floatbox"
      in
      Buffer.add_string buf
        (Printf.sprintf "{\"k\":%s,\"l\":%d,\"c\":%d,\"w\":%s}" (jstr k)
           a.a_line a.a_col (jstr a.a_what)))
    f.allocs;
  Buffer.add_string buf "],\"rand\":";
  site_json buf f.rand_use;
  Buffer.add_string buf ",\"clock\":";
  site_json buf f.clock_use;
  Buffer.add_string buf ",\"mut\":";
  site_json buf f.mutates;
  Buffer.add_char buf '}'

let to_json_buf buf t =
  Buffer.add_string buf
    (Printf.sprintf
       "{\"file\":%s,\"key\":%s,\"role\":%s,\"lib\":%s,\"wrapped\":%b,\"module\":%s,\"has_mli\":%b,\"parsed\":%b"
       (jstr t.s_file) (jstr t.s_key)
       (jstr (Rules.role_to_string t.s_role))
       (jstr t.s_lib) t.s_wrapped (jstr t.s_module) t.s_has_mli t.s_parsed);
  Buffer.add_string buf ",\"exceptions\":[";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (jstr e))
    t.s_exceptions;
  Buffer.add_string buf "],\"mli_vals\":[";
  List.iteri
    (fun i (n, d) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "[%s,%s]" (jstr n) (jstr d)))
    t.s_mli_vals;
  Buffer.add_string buf "],\"opens\":[";
  List.iteri
    (fun i o ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (jstr (String.concat "." o)))
    t.s_opens;
  Buffer.add_string buf "],\"suppress\":[";
  List.iteri
    (fun i (l, r) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "[%d,%s]" l (jstr r)))
    t.s_suppress;
  Buffer.add_string buf "],\"findings\":[";
  List.iteri
    (fun i (f : Finding.t) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "{\"rule\":%s,\"file\":%s,\"line\":%d,\"col\":%d,\"message\":%s}"
           (jstr f.rule) (jstr f.file) f.line f.col (jstr f.message)))
    t.s_findings;
  Buffer.add_string buf "],\"metrics\":[";
  List.iteri
    (fun i m ->
      if i > 0 then Buffer.add_char buf ',';
      site_json buf (Some m))
    t.s_metrics;
  Buffer.add_string buf "],\"funcs\":[";
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_char buf ',';
      fn_json buf f)
    t.s_funcs;
  Buffer.add_string buf "]}"

(* --- parsing back --- *)

exception Bad_cache

let jget k j = match Obs.Json.member k j with Some v -> v | None -> raise Bad_cache
let jstr_of = function Obs.Json.Str s -> s | _ -> raise Bad_cache
let jnum_of = function Obs.Json.Num n -> int_of_float n | _ -> raise Bad_cache
let jbool_of = function Obs.Json.Bool b -> b | _ -> raise Bad_cache
let jarr_of = function Obs.Json.Arr l -> l | _ -> raise Bad_cache

let role_of_string = function
  | "bin" -> Rules.Bin
  | "bench" -> Rules.Bench
  | "root-only" -> Rules.Root_only
  | s ->
      if s = "lib" then Rules.Lib ""
      else if String.length s > 4 && String.sub s 0 4 = "lib/" then
        Rules.Lib (String.sub s 4 (String.length s - 4))
      else raise Bad_cache

let site_of_json = function
  | Obs.Json.Null -> None
  | j ->
      Some
        {
          s_line = jnum_of (jget "l" j);
          s_col = jnum_of (jget "c" j);
          s_what = jstr_of (jget "w" j);
        }

let split_path s = if s = "" then [] else String.split_on_char '.' s

let fn_of_json j =
  {
    fn_path = split_path (jstr_of (jget "path" j));
    fn_name = jstr_of (jget "name" j);
    fn_arity = jnum_of (jget "arity" j);
    fn_opt = jnum_of (jget "opt" j);
    fn_line = jnum_of (jget "l" j);
    fn_col = jnum_of (jget "c" j);
    calls =
      List.map
        (fun cj ->
          {
            callee = split_path (jstr_of (jget "p" cj));
            args = jnum_of (jget "a" cj);
            c_line = jnum_of (jget "l" cj);
            c_col = jnum_of (jget "c" cj);
            c_defer = jbool_of (jget "d" cj);
          })
        (jarr_of (jget "calls" j));
    raises = List.map jstr_of (jarr_of (jget "raises" j));
    catches = List.map jstr_of (jarr_of (jget "catches" j));
    allocs =
      List.map
        (fun aj ->
          let kind =
            match jstr_of (jget "k" aj) with
            | "closure" -> Closure
            | "list" -> List_lit
            | "array" -> Array_lit
            | "record" -> Record_lit
            | "floatbox" -> Float_box
            | _ -> raise Bad_cache
          in
          {
            a_kind = kind;
            a_line = jnum_of (jget "l" aj);
            a_col = jnum_of (jget "c" aj);
            a_what = jstr_of (jget "w" aj);
          })
        (jarr_of (jget "allocs" j));
    rand_use = site_of_json (jget "rand" j);
    clock_use = site_of_json (jget "clock" j);
    mutates = site_of_json (jget "mut" j);
  }

let of_json j =
  {
    s_file = jstr_of (jget "file" j);
    s_key = jstr_of (jget "key" j);
    s_role = role_of_string (jstr_of (jget "role" j));
    s_lib = jstr_of (jget "lib" j);
    s_wrapped = jbool_of (jget "wrapped" j);
    s_module = jstr_of (jget "module" j);
    s_has_mli = jbool_of (jget "has_mli" j);
    s_parsed = jbool_of (jget "parsed" j);
    s_funcs = List.map fn_of_json (jarr_of (jget "funcs" j));
    s_exceptions = List.map jstr_of (jarr_of (jget "exceptions" j));
    s_mli_vals =
      List.map
        (function
          | Obs.Json.Arr [ n; d ] -> (jstr_of n, jstr_of d)
          | _ -> raise Bad_cache)
        (jarr_of (jget "mli_vals" j));
    s_opens =
      List.map (fun o -> split_path (jstr_of o)) (jarr_of (jget "opens" j));
    s_suppress =
      List.map
        (function
          | Obs.Json.Arr [ l; r ] -> (jnum_of l, jstr_of r)
          | _ -> raise Bad_cache)
        (jarr_of (jget "suppress" j));
    s_findings =
      List.map
        (fun fj ->
          Finding.v
            ~rule:(jstr_of (jget "rule" fj))
            ~file:(jstr_of (jget "file" fj))
            ~line:(jnum_of (jget "line" fj))
            ~col:(jnum_of (jget "col" fj))
            (jstr_of (jget "message" fj)))
        (jarr_of (jget "findings" j));
    s_metrics =
      List.map
        (fun mj ->
          match site_of_json mj with Some m -> m | None -> raise Bad_cache)
        (jarr_of (jget "metrics" j));
  }
