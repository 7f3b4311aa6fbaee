(** Deferred ta-trace/1 events for the fused scenario kernels, and
    {!record}, the one writer of the [timer.fire], [packet.sent],
    [tap.observe] and link-queue [packet.dropped] records that {!Link},
    {!Tap} and [Padding.Gateway] call on the event loop.

    Kernel stages must not write to the live trace buffer while they run:
    a mid-run ordering tie forces a fallback to the event loop, and any
    events already emitted would then be duplicated by the rerun.  Stages
    instead record would-be events here — float-encoded, allocation-free —
    and the orchestrator {!replay}s the buffers through {!Obs.Trace.event}
    exactly once, after the run has finished without a tie.  Each entry
    carries its displayed time; {!Obs.Trace} orders a run's lines, so
    buffers may be replayed in any order. *)

type t

val create : unit -> t
val clear : t -> unit

val push : t -> time:float -> code:float -> x:float -> unit
(** Append one deferred event displayed at [time].  [code] is one of the
    constants below; [x] is its per-code payload field. *)

val record : time:float -> code:float -> x:float -> unit
(** Write now the record a {!push} of the same arguments defers. *)

val replay : t -> unit
(** {!record} every entry, in push order. *)

(** Entry codes (floats so buffers stay unboxed). *)

val timer_fire : float
(** [x] = gateway queue length after the pop. *)

val sent_payload : float
val sent_dummy : float
(** [x] = size in bytes; displayed at the emit time. *)

val observe_payload : float
val observe_dummy : float
(** [x] = size in bytes. *)

val drop_payload : float
val drop_dummy : float
val drop_cross : float
(** Link-queue drop of the given kind; [x] unused. *)
