(* E001: transitive exception escape vs. the .mli doc contract.

   Fixpoint over the call graph: the escape set of a function is its
   directly-raised project exceptions plus the escape sets of its
   resolved callees, minus what it catches ([try]/[match exception]).
   A catch-all handler ("*") absorbs callee contributions but keeps the
   function's own raises (the common shape is [try work () with _ ->],
   wrapping the call, not the raise).

   Only project-declared exceptions are tracked — [Invalid_argument]
   from a bounds check is part of the stdlib vocabulary, but letting
   [Tap_starved] sail through an exported API undocumented is a contract
   bug.  A finding fires when an exported value of an [.mli]-carrying
   library module can raise a project exception whose name does not
   appear in that value's doc comment. *)

module S = Set.Make (String)

let last path =
  match List.rev (String.split_on_char '.' path) with
  | x :: _ -> x
  | [] -> path

let escape_sets (g : Callgraph.t) =
  let nodes = Callgraph.nodes g in
  let n = Array.length nodes in
  let direct = Array.make n S.empty in
  let catch_all = Array.make n false in
  let catches = Array.make n S.empty in
  Array.iteri
    (fun i (nd : Callgraph.node) ->
      direct.(i) <-
        S.of_list
          (List.filter
             (Callgraph.is_project_exception g)
             (List.map last nd.n_fn.Symtab.raises));
      catch_all.(i) <- List.mem "*" nd.n_fn.Symtab.catches;
      catches.(i) <- S.of_list nd.n_fn.Symtab.catches)
    nodes;
  let esc = Array.map (fun _ -> S.empty) nodes in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iteri
      (fun i _ ->
        let from_callees =
          if catch_all.(i) then S.empty
          else
            List.fold_left
              (fun acc (j, (c : Symtab.call)) ->
                (* deferred calls run under the supervision machinery's
                   catch-all classification: not this function's escape *)
                if c.Symtab.c_defer then acc else S.union acc esc.(j))
              S.empty (Callgraph.succ g i)
        in
        let next = S.diff (S.union direct.(i) from_callees) catches.(i) in
        if not (S.equal next esc.(i)) then begin
          esc.(i) <- next;
          changed := true
        end)
      nodes
  done;
  esc

(* Witness chain: walk edges from [i] to the nearest node that raises
   [exc] directly, for the finding message. *)
let witness (g : Callgraph.t) esc i exc =
  let nodes = Callgraph.nodes g in
  let direct_raises j =
    List.exists
      (fun r -> last r = exc)
      nodes.(j).Callgraph.n_fn.Symtab.raises
  in
  let parent =
    Callgraph.reach g ~roots:[ i ] ~enter:(fun nd -> S.mem exc esc.(nd.Callgraph.n_id))
  in
  let best = ref None in
  Hashtbl.iter
    (fun j _ ->
      if direct_raises j then
        let c = Callgraph.chain g parent j in
        match !best with
        | Some c' when List.length c' <= List.length c -> ()
        | _ -> best := Some c)
    parent;
  !best

let doc_mentions doc exc =
  (* substring match is enough: "Raises [Tap_starved] when ..." *)
  let n = String.length doc and m = String.length exc in
  let rec go k =
    k + m <= n && (String.sub doc k m = exc || go (k + 1))
  in
  m > 0 && go 0

let run (g : Callgraph.t) =
  let esc = escape_sets g in
  let nodes = Callgraph.nodes g in
  let findings = ref [] in
  Array.iteri
    (fun i (nd : Callgraph.node) ->
      let s = nd.n_summary in
      match s.Symtab.s_role with
      | Rules.Bin | Rules.Bench | Rules.Root_only -> ()
      | Rules.Lib _ ->
          if
            s.Symtab.s_has_mli
            && nd.n_fn.Symtab.fn_path = []
            && (not (S.is_empty esc.(i)))
          then begin
            match List.assoc_opt nd.n_fn.Symtab.fn_name s.Symtab.s_mli_vals with
            | None -> ()  (* not exported *)
            | Some doc ->
                S.iter
                  (fun exc ->
                    if not (doc_mentions doc exc) then
                      let sup = Callgraph.suppress_for g s.Symtab.s_file in
                      let line = nd.n_fn.Symtab.fn_line in
                      if not (Suppress.allows sup ~line ~rule:"E001") then
                        let via =
                          match witness g esc i exc with
                          | Some (_ :: _ :: _ as c) ->
                              " (via " ^ String.concat " -> " c ^ ")"
                          | _ -> ""
                        in
                        findings :=
                          Finding.v ~rule:"E001" ~file:s.Symtab.s_file ~line
                            ~col:nd.n_fn.Symtab.fn_col
                            (Printf.sprintf
                               "exported %s may raise %s%s but its .mli doc \
                                contract does not declare it; add \"Raises \
                                [%s] ...\" to the doc comment or catch it"
                               nd.n_qual exc via exc)
                          :: !findings)
                  esc.(i)
          end)
    nodes;
  !findings
