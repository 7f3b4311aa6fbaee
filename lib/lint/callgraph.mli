(** The whole-program call graph: {!Symtab} summaries linked across
    files by resolving dotted call paths against the dune library layout
    (wrapped-library aliases, same-library siblings, the unwrapped
    [lib/fleet] globals).  Conservative: calls through function values,
    functors or the stdlib stay unresolved and are simply absent as
    edges. *)

type node = {
  n_id : int;
  n_summary : Symtab.t;
  n_fn : Symtab.fn;
  n_qual : string;  (** ["Module.sub.fn"] display name *)
}

type stats = {
  cg_modules : int;     (** parsed file summaries linked *)
  cg_functions : int;   (** graph nodes *)
  cg_edges : int;       (** resolved call edges *)
  cg_unresolved : int;  (** project-module-headed calls left unresolved *)
}

type t

val build : Symtab.t list -> t
(** Link the summaries.  Unparsable files (E000) are dropped first. *)

val nodes : t -> node array

val succ : t -> int -> (int * Symtab.call) list
(** Resolved outgoing edges of a node, with the originating call site. *)

val stats : t -> stats

val suppress_for : t -> string -> Suppress.t
(** Memoised suppression table of a linked file (empty for unknown
    files), so whole-program passes can honour [talint: allow]
    directives at finding sites. *)

val is_project_exception : t -> string -> bool
(** Is this exception name declared by any linked file?  (E001 only
    audits project exceptions, never [Invalid_argument] and friends.) *)

val reach :
  t -> roots:int list -> enter:(node -> bool) -> (int, int) Hashtbl.t
(** Breadth-first closure from [roots] over resolved edges; [enter]
    vetoes traversal into a node (sanctioned boundaries).  The result
    maps each reached node to its BFS parent (roots to themselves). *)

val chain : t -> (int, int) Hashtbl.t -> int -> string list
(** Reconstruct the qualified-name path from a root to a reached node
    using a {!reach} parent table. *)
