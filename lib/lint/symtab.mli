(** Per-file interprocedural summaries: the cacheable unit of the
    whole-program passes.

    [summarize] parses one [.ml] file and records, for every
    module-level binding, its outgoing calls (with argument counts),
    directly-raised and caught exceptions, allocation sites, and
    D001/D002 primitive uses.  Summaries are purely file-local, so the
    incremental driver can key each one on the MD5 of the file pair
    (source + [.mli]) and round-trip it through the [talint-cache/2]
    JSON cache; {!Callgraph} links them across files afterwards. *)

type site = { s_line : int; s_col : int; s_what : string }

type call = {
  callee : string list;  (** normalised dotted path as written *)
  args : int;  (** 0 = bare reference (escaping value, never "partial") *)
  c_line : int;
  c_col : int;
  c_defer : bool;
      (** the call sits inside a closure passed to the supervision
          machinery ([Sweep.mapi] / [Supervise.run] / [Exec.Pool]
          fan-outs), which catches and classifies task exceptions: the
          escape pass skips such edges, taint/alloc still follow them *)
}

type alloc_kind = Closure | List_lit | Array_lit | Record_lit | Float_box

val alloc_kind_to_string : alloc_kind -> string

type alloc = { a_kind : alloc_kind; a_line : int; a_col : int; a_what : string }

type fn = {
  fn_path : string list;  (** submodule path within the file *)
  fn_name : string;  (** ["(init)"] for [let () = ...] blocks *)
  fn_arity : int;
  fn_opt : int;  (** optional parameters among [fn_arity] *)
  fn_line : int;
  fn_col : int;
  calls : call list;
  raises : string list;  (** dotted constructor paths raised directly *)
  catches : string list;  (** exception names caught; ["*"] = catch-all *)
  allocs : alloc list;
  rand_use : site option;
  clock_use : site option;
  mutates : site option;
}

type t = {
  s_file : string;
  s_key : string;
  s_role : Rules.role;
  s_lib : string;  (** dune library name; [""] for bin/bench *)
  s_wrapped : bool;
  s_module : string;
  s_has_mli : bool;
  s_funcs : fn list;
  s_exceptions : string list;
  s_mli_vals : (string * string) list;  (** exported val -> doc comment *)
  s_suppress : (int * string) list;
  s_findings : Finding.t list;  (** per-file lexical findings *)
  s_metrics : site list;
      (** [Obs.Metrics] registrations with literal names, in source
          order; [s_what] is the registry key, ["name"] or
          ["name{k=v}"] (M001) *)
  s_parsed : bool;  (** [false]: E000; whole-program passes skip it *)
}

val key : source:string -> mli_source:string option -> string
(** The cache key: MD5 over both members of the file pair, so editing
    only the [.mli] (e.g. a doc contract) still invalidates. *)

val module_name_of_file : string -> string

val summarize :
  role:Rules.role ->
  lib:string ->
  wrapped:bool ->
  file:string ->
  source:string ->
  mli_source:string option ->
  t
(** Parse and summarise one file.  Never raises: unparsable sources get
    [s_parsed = false] and carry only the E000 finding from
    {!Rules.check}. *)

val suppress : t -> Suppress.t
(** Rebuild the suppression table from the cached entries. *)

val cache_schema : string
(** ["talint-cache/2"]. *)

val to_json_buf : Buffer.t -> t -> unit
(** Append the summary as one JSON object (cache write path). *)

exception Bad_cache

val of_json : Obs.Json.t -> t
(** Parse a {!to_json_buf} object back.  Raises {!Bad_cache} on any
    shape mismatch — the driver treats that as a cold cache. *)
