(** Source-tree walker, incremental summary cache and report rendering
    for talint.

    The driver walks [lib/], [bin/], [bench/], [perfbench/] and
    [examples/] under a project root, summarises every [.ml] file
    ({!Symtab}), links the whole-program call graph ({!Callgraph}) and
    runs the per-file rules plus the interprocedural passes ({!Escape}
    E001, {!Taint} T001, {!Alloccheck} A001), the
    one-registration-per-metric check (M001: a metric name and label
    registered by more than one call) and the reachability check (U001:
    a [val] a [lib/] [.mli] exports that no binding outside [lib/] and
    no [lib/] init block reaches), then applies the
    [lint/BASELINE.json] waivers ({!Baseline}).  [perfbench/] and
    [examples/] are U001 roots only: no finding is reported in them.
    With [?cache_path], per-file summaries are round-tripped through a
    [talint-cache/3] JSON file keyed on source+mli MD5, so a warm run on
    an unchanged tree re-parses nothing.  It never writes to any
    channel itself. *)

exception Error of string
(** Unusable root or unreadable file. *)

val find_root : ?from:string -> unit -> string option
(** Walk up from [from] (default: the current directory) to the first
    directory containing both [dune-project] and a [lib/] directory. *)

type summary = {
  root : string;
  files : int;  (** .ml files scanned *)
  cache_hits : int;   (** summaries reused from the cache *)
  cache_misses : int; (** files parsed this run *)
  cg : Callgraph.stats;
  pass_counts : (string * int) list;
      (** live findings per source: ["file"] (lexical rules), then
          ["E001"], ["T001"], ["A001"], ["M001"], ["U001"], ["B001"] *)
  findings : Finding.t list;
      (** live (unbaselined) findings, sorted by file, line, col, rule *)
  baselined : Finding.t list;  (** waived by [lint/BASELINE.json] *)
}

val hot_paths_file : string
(** ["lint/hot_paths.txt"], relative to the project root. *)

val run : ?cache_path:string -> root:string -> unit -> summary
(** Lint the whole tree under [root].  @raise Error on an unusable root
    or unreadable source file.  An unreadable or stale-schema cache is
    ignored (cold run); an unwritable one is skipped silently. *)

val to_json : summary -> string
(** The [talint/2] report: [{"schema": "talint/2", "root",
    "files_scanned", "cache": {hits, misses}, "callgraph": {modules,
    functions, edges, unresolved}, "passes": [{id, count}], "count",
    "baselined", "findings": [{rule, file, line, col, baselined,
    message}]}].  [count] is live findings only; baselined ones are
    listed with ["baselined": true]. *)

val pp_text : Format.formatter -> summary -> unit
(** One ["file:line:col: [RULE] message"] line per finding (baselined
    ones marked), a summary line, and a call-graph/cache stats line. *)
