(** JSONL event-trace sink, schema [ta-trace/1].

    Off by default: until {!enable} is called every {!event} is a cheap
    no-op (one atomic load).  When enabled, events are buffered {e per
    simulation run} ({!with_run} scopes a run to the calling domain) and
    {!flush} writes the file with the run buffers sorted by run label —
    so the bytes on disk are independent of which pool worker ran which
    simulation, and a [--jobs 1] and [--jobs n] run of the same workload
    produce byte-identical traces.

    Within a run, lines are written in simulated-time order: sorted by
    the float [t] passed to {!event} (not its printed form), equal times
    by the line's bytes.  The order is therefore a function of the run's
    event multiset, not of the order the events were emitted in: two
    emitters of the same events — the event loop and the fused kernels,
    which replay deferred per-stage buffers — write identical bytes.

    File layout: the first line is the header [{"schema":"ta-trace/1"}];
    every other line is one event object with at least
    - ["run"] (string): label of the simulation run that emitted it,
    - ["t"] (number, >= 0): simulated seconds,
    - ["ev"] (string): event name from {!known_events},
    plus event-specific scalar fields (e.g. ["kind"], ["cause"], ["q"]).

    Events emitted outside any {!with_run} scope are dropped: tooling
    (micro-benchmarks, calibration probes) does not pollute a trace. *)

type field = S of string | I of int | F of float | B of bool

val enable : path:string -> unit
(** Start buffering events; {!flush} will write them to [path].  Discards
    anything buffered under a previous [enable]. *)

val disable : unit -> unit
(** Stop tracing and discard any unflushed buffers. *)

val enabled : unit -> bool

val with_run : string -> (unit -> 'a) -> 'a
(** Scope a simulation run: events emitted by the calling domain inside
    [f] are buffered under the given label.  The buffer is committed even
    if [f] raises (a partial trace is exactly what a post-mortem needs).
    No-op wrapper when tracing is disabled. *)

val event : name:string -> t:float -> (string * field) list -> unit
(** Emit one event at simulated time [t] into the current run buffer.
    Emission order is free: the run is sorted when {!with_run} commits
    it.  Dropped when tracing is disabled or no run is in scope. *)

val flush : unit -> unit
(** Write header plus all buffered runs (sorted by label, then content)
    to the enabled path, then clear the buffers.  No-op when disabled. *)

val known_events : string list
(** The [ta-trace/1] event vocabulary. *)

type summary = { events : int; runs : int }

val validate_file : string -> (summary, string) result
(** Check that a file is a well-formed [ta-trace/1] trace: header first,
    every line parses as JSON, required fields present and typed, [t]
    finite and non-negative, event names in {!known_events}. *)
