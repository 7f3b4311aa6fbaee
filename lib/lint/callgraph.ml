(* Link per-file [Symtab] summaries into the whole-program call graph.

   Resolution mirrors OCaml scoping, conservatively, against the dune
   library layout (wrapped libraries expose [Alias.Module.fn]; the
   unwrapped [lib/fleet] exposes its modules globally):

     1. same-file: the callee path relative to the caller's submodule
        path, walking outward, then absolute within the file;
     2. same-library sibling: [Module.fn] where [Module] is another file
        of the caller's library (wrapped libraries see siblings bare);
     3. wrap alias: [Alias.Module.fn] (or [Alias.fn] for a library's
        main module) where [Alias] is a library name capitalised — note
        the library NAME, not the directory (lib/core -> [Linkpad]);
     4. unwrapped global: [Module.fn] where [Module] belongs to an
        unwrapped library.

   A call none of these resolve is retried under each of the file's
   top-level [open]s, last first ([open Scenarios] then [System.run]).
   Anything else (function values, functors, stdlib) stays unresolved.
   Unresolved calls whose head looks like a project module are counted
   in {!stats} so a resolution regression is visible in the report. *)

type node = {
  n_id : int;
  n_summary : Symtab.t;
  n_fn : Symtab.fn;
  n_qual : string;  (* "Module.sub.fn" display name *)
}

type stats = {
  cg_modules : int;
  cg_functions : int;
  cg_edges : int;
  cg_unresolved : int;
}

type t = {
  nodes : node array;
  succ : (int * Symtab.call) list array;  (* resolved outgoing edges *)
  stats : stats;
  by_file : (string, Symtab.t) Hashtbl.t;
  exceptions : (string, string) Hashtbl.t;  (* exc name -> declaring file *)
  suppress_cache : (string, Suppress.t) Hashtbl.t;
}

let nodes t = t.nodes
let succ t i = t.succ.(i)
let stats t = t.stats

let suppress_for t file =
  match Hashtbl.find_opt t.suppress_cache file with
  | Some s -> s
  | None ->
      let s =
        match Hashtbl.find_opt t.by_file file with
        | Some sum -> Symtab.suppress sum
        | None -> Suppress.of_entries []
      in
      Hashtbl.add t.suppress_cache file s;
      s

let is_project_exception t name = Hashtbl.mem t.exceptions name

let qual (s : Symtab.t) (f : Symtab.fn) =
  String.concat "." ((s.s_module :: f.fn_path) @ [ f.fn_name ])

let alias_of_lib lib = String.capitalize_ascii lib

let build (summaries : Symtab.t list) =
  let summaries = List.filter (fun (s : Symtab.t) -> s.s_parsed) summaries in
  let nodes =
    List.concat_map
      (fun (s : Symtab.t) ->
        List.map (fun f -> (s, f)) s.s_funcs)
      summaries
    |> Array.of_list
    |> Array.mapi (fun i (s, f) ->
           { n_id = i; n_summary = s; n_fn = f; n_qual = qual s f })
  in
  (* (file, dotted path within file) -> node id *)
  let defs = Hashtbl.create 512 in
  Array.iter
    (fun n ->
      let key =
        String.concat "." (n.n_fn.Symtab.fn_path @ [ n.n_fn.Symtab.fn_name ])
      in
      (* first binding wins on shadowing: close enough for linking *)
      if not (Hashtbl.mem defs (n.n_summary.Symtab.s_file, key)) then
        Hashtbl.add defs (n.n_summary.Symtab.s_file, key) n.n_id)
    nodes;
  (* library name -> module name -> summary; plus alias and global maps *)
  let lib_modules : (string, (string, Symtab.t) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 16
  in
  let alias_to_lib = Hashtbl.create 16 in
  let global_modules = Hashtbl.create 16 in
  let by_file = Hashtbl.create 64 in
  let exceptions = Hashtbl.create 16 in
  List.iter
    (fun (s : Symtab.t) ->
      Hashtbl.replace by_file s.s_file s;
      List.iter
        (fun e ->
          if not (Hashtbl.mem exceptions e) then
            Hashtbl.add exceptions e s.s_file)
        s.s_exceptions;
      if s.s_lib <> "" then begin
        let mods =
          match Hashtbl.find_opt lib_modules s.s_lib with
          | Some h -> h
          | None ->
              let h = Hashtbl.create 8 in
              Hashtbl.add lib_modules s.s_lib h;
              Hashtbl.add alias_to_lib (alias_of_lib s.s_lib) s.s_lib;
              h
        in
        Hashtbl.replace mods s.s_module s;
        if not s.s_wrapped then Hashtbl.replace global_modules s.s_module s
      end)
    summaries;
  let lookup_in file path = Hashtbl.find_opt defs (file, String.concat "." path) in
  (* resolve [path] as a top-level definition of library [lib]:
     [Module.sub.fn] or, for the main module, [fn] directly *)
  let resolve_in_lib lib path =
    match Hashtbl.find_opt lib_modules lib with
    | None -> None
    | Some mods -> (
        match path with
        | m :: (_ :: _ as rest) when Hashtbl.mem mods m ->
            lookup_in (Hashtbl.find mods m).Symtab.s_file rest
        | [ _ ] -> (
            (* [Alias.fn]: the library's main module re-exports it *)
            match Hashtbl.find_opt mods (alias_of_lib lib) with
            | Some s -> lookup_in s.Symtab.s_file path
            | None -> None)
        | _ -> None)
  in
  let resolve_path (caller : node) callee =
    let file = caller.n_summary.Symtab.s_file in
    let cpath = caller.n_fn.Symtab.fn_path in
    (* 1. caller-submodule-relative, walking outward to file scope *)
    let rec relative prefix =
      match lookup_in file (prefix @ callee) with
      | Some id -> Some id
      | None -> (
          match prefix with
          | [] -> None
          | _ -> relative (List.filteri (fun i _ -> i < List.length prefix - 1) prefix))
    in
    match relative cpath with
    | Some id -> Some id
    | None -> (
        let lib = caller.n_summary.Symtab.s_lib in
        match callee with
        | m :: (_ :: _ as rest) -> (
            (* 2. same-library sibling module *)
            let sibling =
              if lib = "" then None
              else
                match Hashtbl.find_opt lib_modules lib with
                | None -> None
                | Some mods -> (
                    match Hashtbl.find_opt mods m with
                    | Some s -> lookup_in s.Symtab.s_file rest
                    | None -> None)
            in
            match sibling with
            | Some id -> Some id
            | None -> (
                (* 3. wrap alias *)
                match Hashtbl.find_opt alias_to_lib m with
                | Some lib' -> resolve_in_lib lib' rest
                | None -> (
                    (* 4. unwrapped global module *)
                    match Hashtbl.find_opt global_modules m with
                    | Some s -> lookup_in s.Symtab.s_file rest
                    | None -> None)))
        | _ -> None)
  in
  let resolve (caller : node) (c : Symtab.call) =
    List.fold_left
      (fun found o ->
        match found with
        | Some _ -> found
        | None -> resolve_path caller (o @ c.Symtab.callee))
      (resolve_path caller c.Symtab.callee)
      (List.rev caller.n_summary.Symtab.s_opens)
  in
  let known_head = function
    | m :: _ :: _ ->
        Hashtbl.mem alias_to_lib m
        || Hashtbl.mem global_modules m
        || Hashtbl.fold
             (fun _ mods acc -> acc || Hashtbl.mem mods m)
             lib_modules false
    | _ -> false
  in
  let succ = Array.make (Array.length nodes) [] in
  let n_edges = ref 0 and unresolved = ref 0 in
  Array.iter
    (fun n ->
      let edges =
        List.filter_map
          (fun (c : Symtab.call) ->
            match resolve n c with
            | Some id ->
                incr n_edges;
                Some (id, c)
            | None ->
                if known_head c.callee then incr unresolved;
                None)
          n.n_fn.Symtab.calls
      in
      succ.(n.n_id) <- edges)
    nodes;
  {
    nodes;
    succ;
    stats =
      {
        cg_modules = List.length summaries;
        cg_functions = Array.length nodes;
        cg_edges = !n_edges;
        cg_unresolved = !unresolved;
      };
    by_file;
    exceptions;
    suppress_cache = Hashtbl.create 16;
  }

(* Shared reachability helper: breadth-first closure from [roots]
   following resolved edges, with a per-target veto.  Returns, for every
   reached node, the id it was first reached from (for chain
   reconstruction); roots map to themselves. *)
let reach t ~roots ~enter =
  let parent = Hashtbl.create 64 in
  let q = Queue.create () in
  List.iter
    (fun r ->
      if not (Hashtbl.mem parent r) then begin
        Hashtbl.add parent r r;
        Queue.add r q
      end)
    roots;
  while not (Queue.is_empty q) do
    let i = Queue.take q in
    List.iter
      (fun (j, _) ->
        if (not (Hashtbl.mem parent j)) && enter t.nodes.(j) then begin
          Hashtbl.add parent j i;
          Queue.add j q
        end)
      t.succ.(i)
  done;
  parent

let chain t parent i =
  let rec go i acc =
    let p = Hashtbl.find parent i in
    if p = i then t.nodes.(i).n_qual :: acc
    else go p (t.nodes.(i).n_qual :: acc)
  in
  go i []
