(** Plain-text tables and CSV output for the figure reproductions. *)

type t

type row_status =
  | Row_ok
  | Row_failed of string  (** declared deterministic failure + diagnostic *)
  | Row_quarantined of string  (** retries exhausted + diagnostic *)

val create : title:string -> columns:string list -> t

val add_row : ?status:row_status -> t -> string list -> unit
(** Add a row (default status {!Row_ok}).  Raises [Invalid_argument] if
    the row width differs from the header.  When at least one row is not
    ok, {!print} and {!to_csv} append a trailing [status] column carrying
    the per-row annotation — tables of fully successful runs render
    byte-identically to tables that never heard of statuses. *)

val has_failures : t -> bool
(** True when some row carries a non-ok status. *)

val fcell : float -> string
(** Default float formatting ("%.4g"); scientific when warranted. *)

val print : ?csv:string option * string -> t -> Format.formatter -> unit
(** Render with column alignment, a title line, and a rule.  Also records
    [(title, digest)] in the process-global registry read by
    {!printed_digests} — the bench harness serializes that registry so
    the regression differ can bind on table content.

    [~csv:(Some dir, file)] also writes {!to_csv} to [dir/file] (the
    [--csv] copy), creating missing directories (mkdir -p semantics);
    [~csv:(None, _)] writes nothing.  A failed write raises [Sys_error]
    with an actionable message naming the offending path instead of the
    raw [open_out] error. *)

val digest : t -> string
(** Hex MD5 of the title plus the {!to_csv} rendering — one stable
    fingerprint per table; any cell, status annotation, or column change
    changes it. *)

val printed_digests : unit -> (string * string) list
(** [(title, digest)] of every table printed so far, in print order. *)

val to_csv : t -> string
(** RFC-4180-ish CSV (quotes cells containing commas/quotes/newlines). *)
