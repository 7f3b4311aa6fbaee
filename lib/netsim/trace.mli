(** Capture-file I/O — the simulated analogue of saving an analyzer dump.

    The adversary's workflow in the paper is offline: dump the padded
    traffic with a line analyzer, then analyze the timestamps later.
    These functions persist a tap's timestamp series to a small text
    format (one float per line, '#' comments, a header with metadata)
    so experiments can be split into capture and analysis phases, and
    traces can be diffed across runs. *)

type meta = {
  label : string;        (** free-form, e.g. the payload-rate class *)
  created_unix : float;  (** wall-clock stamp for provenance; 0 if unknown *)
}

val save : path:string -> meta:meta -> float array -> unit
(** Write timestamps (seconds, full precision) with a metadata header.
    Overwrites an existing file. *)

exception Parse_error of { path : string; line : int; msg : string }
(** Malformed capture content; carries the offending line number. *)

val load : path:string -> meta * float array
(** Parse a file produced by {!save}.  Raises {!Parse_error} on malformed
    content (with the offending line number): a value that is not a
    float, a non-finite timestamp or [created_unix], or a timestamp below
    its predecessor (equal ones are legal).  Raises [Sys_error] on I/O. *)

val piats : ?limit:int -> float array -> float array
(** Packet inter-arrival times: consecutive differences of a timestamp
    series such as {!Tap.timestamps}, the first [limit] of them (default
    all).  One array, no other allocation. *)
