(** Deferred ta-trace/1 events for the fused scenario kernels, and
    {!record}, the one writer of the [timer.fire], [packet.sent],
    [tap.observe] and link-queue [packet.dropped] records that {!Link},
    {!Tap} and [Padding.Gateway] call on the event loop.

    Kernel stages must not write to the live trace buffer while they run:
    a mid-run ordering tie forces a fallback to the event loop, and any
    events already emitted would then be duplicated by the rerun.  Stages
    instead record would-be events here — float-encoded, allocation-free —
    and the orchestrator replays the merged buffers through
    {!Obs.Trace.event} exactly once, transactionally, at flush time.

    Every entry carries a [key]: the simulated time of the event-loop
    event during which the record would have been inserted (insertion
    order, not display order — a gateway fire inserts its [packet.sent]
    record, stamped with the later emit time, at fire time).  Within one
    buffer, entries are pushed in processing order and keys are
    monotone; merging buffers by key reproduces the event loop's
    insertion order whenever no two buffers share an exact key. *)

type t

val create : unit -> t
val clear : t -> unit
val length : t -> int

val push : t -> key:float -> code:float -> x:float -> y:float -> unit
(** Append one deferred event.  [code] is one of the constants below;
    [x]/[y] are per-code payload fields (see {!emit}). *)

val key : t -> int -> float
(** Insertion-time key of entry [i] (unchecked; [i < length t]). *)

val record : key:float -> code:float -> x:float -> y:float -> unit
(** Write now the record a {!push} of the same arguments defers. *)

val emit : t -> int -> unit
(** Replay entry [i] through {!record}. *)

(** Entry codes (floats so buffers stay unboxed). *)

val timer_fire : float
(** [x] = gateway queue length after the pop; displayed at [key]. *)

val sent_payload : float
val sent_dummy : float
(** [x] = size in bytes, [y] = emit time (the displayed timestamp). *)

val observe_payload : float
val observe_dummy : float
(** [x] = size in bytes; displayed at [key]. *)

val drop_payload : float
val drop_dummy : float
val drop_cross : float
(** Link-queue drop of the given kind; displayed at [key]. *)
