(* T001: transitive determinism of parallel task bodies.

   A sweep cell must be reproducible from (sweep digest, seed) alone —
   that is the whole premise of the checkpoint/resume journal and of
   cross-run comparability in the paper's tables.  D001/D002 already ban
   ambient randomness and wall-clock reads lexically, per file; this
   pass closes the interprocedural gap: a task body that calls a helper
   which calls [Unix.gettimeofday] is just as broken as one that reads
   the clock inline.

   Roots: every call site that resolves to [Scenarios.Sweep.mapi] or to
   an [Exec.Pool] fan-out entry point.  The enclosing function is
   tainted (its nested task closure is summarised into it) and the walk
   follows resolved edges, EXCEPT into [lib/prng] and [lib/obs] — the
   sanctioned boundaries: seeded streams and the metrics/trace layer are
   allowed to do what they do.  Sinks at a reached node:

     - a D001-class primitive use (where D001 applies to that file),
     - a D002-class wall-clock read (where D002 applies),
     - a write to module-level mutable state (the shared-state race
       R001 exists to prevent; Atomic/Mutex state never registers as a
       sink because [Rules.alloc_idents] excludes them).

   One finding per (root call site, sink site), reported at the root so
   the reader sees which sweep is at risk; the message carries the call
   chain.  Suppressible at either end ([talint: allow T001] on the root
   call line or on the sink line). *)

let is_target (nd : Callgraph.node) =
  let base = Filename.basename nd.n_summary.Symtab.s_file in
  let fn = nd.n_fn.Symtab.fn_name in
  (base = "sweep.ml" && fn = "mapi")
  || base = "pool.ml"
     && List.mem fn
          [ "parallel_map"; "parallel_init"; "both"; "with_jobs" ]

let sanctioned (nd : Callgraph.node) =
  match nd.n_summary.Symtab.s_role with
  | Rules.Lib ("prng" | "obs") -> true
  | _ -> false

type sink = { sk_file : string; sk_site : Symtab.site; sk_desc : string }

let sinks_of (nd : Callgraph.node) =
  let s = nd.n_summary in
  let role = s.Symtab.s_role in
  let f = nd.n_fn in
  List.filter_map
    (fun x -> x)
    [
      (match f.Symtab.rand_use with
      | Some site when Rules.d001_applies role ->
          Some
            {
              sk_file = s.Symtab.s_file;
              sk_site = site;
              sk_desc = "ambient randomness (" ^ site.Symtab.s_what ^ ")";
            }
      | _ -> None);
      (match f.Symtab.clock_use with
      | Some site when Rules.d002_applies role ->
          Some
            {
              sk_file = s.Symtab.s_file;
              sk_site = site;
              sk_desc = "a wall-clock read (" ^ site.Symtab.s_what ^ ")";
            }
      | _ -> None);
      (match f.Symtab.mutates with
      | Some site ->
          Some
            {
              sk_file = s.Symtab.s_file;
              sk_site = site;
              sk_desc =
                "unsanctioned module-state mutation (" ^ site.Symtab.s_what
                ^ ")";
            }
      | _ -> None);
    ]

let run (g : Callgraph.t) =
  let nodes = Callgraph.nodes g in
  (* root call sites: (caller node, call record) resolving to a target *)
  let roots = ref [] in
  Array.iteri
    (fun i (_ : Callgraph.node) ->
      List.iter
        (fun (j, (c : Symtab.call)) ->
          if is_target nodes.(j) then roots := (i, c) :: !roots)
        (Callgraph.succ g i))
    nodes;
  let findings = ref [] in
  List.iter
    (fun (root, (call : Symtab.call)) ->
      let root_nd = nodes.(root) in
      let root_file = root_nd.Callgraph.n_summary.Symtab.s_file in
      let root_sup = Callgraph.suppress_for g root_file in
      if
        not
          (Suppress.allows root_sup ~line:call.Symtab.c_line ~rule:"T001")
      then begin
        let parent =
          Callgraph.reach g ~roots:[ root ]
            ~enter:(fun nd -> not (sanctioned nd))
        in
        let hits = ref [] in
        Hashtbl.iter
          (fun j _ ->
            List.iter
              (fun sk ->
                let sup = Callgraph.suppress_for g sk.sk_file in
                if
                  not
                    (Suppress.allows sup ~line:sk.sk_site.Symtab.s_line
                       ~rule:"T001")
                then hits := (j, sk) :: !hits)
              (sinks_of nodes.(j)))
          parent;
        (* deterministic order: by sink position *)
        let hits =
          List.sort
            (fun (_, a) (_, b) ->
              compare
                (a.sk_file, a.sk_site.Symtab.s_line, a.sk_site.Symtab.s_col)
                (b.sk_file, b.sk_site.Symtab.s_line, b.sk_site.Symtab.s_col))
            !hits
        in
        List.iter
          (fun (j, sk) ->
            let via = Callgraph.chain g parent j in
            findings :=
              Finding.v ~rule:"T001" ~file:root_file ~line:call.Symtab.c_line
                ~col:call.Symtab.c_col
                (Printf.sprintf
                   "parallel task %s reaches %s at %s:%d (call chain: %s); \
                    route it through lib/prng / lib/obs or seed it from the \
                    task input"
                   (Rules.dotted call.Symtab.callee)
                   sk.sk_desc sk.sk_file sk.sk_site.Symtab.s_line
                   (String.concat " -> " via))
              :: !findings)
          hits
      end)
    !roots;
  !findings
