(** Fused chain-hop kernel: one hop's {!Link} + {!Router} + Poisson
    cross source executed as a batch loop instead of discrete events.

    It owns the link's serve and utilization rules ({!tx_time},
    {!serve}, {!busy_fraction}), which {!Link} calls too.  Per chunk the
    stage merges two arrival trains: the padded sends handed down by the
    upstream stage and the hop's own pre-generated cross arrivals.  The
    departures are settled lazily: before each arrival, and once more at
    the chunk end, a settle step pops the pending transmit-finish and
    far-end-delivery trains, in time order, up to that time (at the
    chunk end, up to and including [until]).  Queue depth, drop
    decisions, counters and high-water marks are those of {!Link}, event
    for event.  The tie rule is the event loop's: wherever it would
    order two events by queue sequence — an arrival against an arrival,
    an arrival against a finish or a delivery, a finish against a
    delivery — the stage raises {!Tie}.  Packets are (time, tag) float
    pairs: payload tag = creation time, dummy = NaN, cross = -inf; cross
    packets are diverted at the link exit as the router does, and their
    finish and delivery count as no event, as there.  Scratch
    is reusable across runs.  With tracing off,
    {!advance} allocates nothing per packet once its buffers have grown
    to the working size: the pending trains live in one in-module
    floatarray, the upstream and output {!Fvec}s are read and appended
    in place, and no float crosses a module boundary (where it would be
    boxed, since modules are compiled [-opaque]).  [test/test_kernel.ml]
    asserts 0 words per enqueue.  With tracing on, each drop appends a
    deferred trace record. *)

exception Tie
(** An exact time tie between two distinct streams (padded arrivals,
    cross arrivals, finishes, deliveries) — ordered by queue sequence in
    the event loop, not reproducible here.  Raised in the {!advance} call
    whose chunk holds the tied time.  The orchestrator catches this and
    falls back to the event loop. *)

val tx_time : size_bytes:int -> bandwidth_bps:float -> float
(** Transmit time of a packet: [size_bytes * 8 / bandwidth_bps]. *)

val serve : floatarray -> now:float -> tx:float -> float
(** Serve a packet accepted at [now]: [regs] holds busy-until (slot 0)
    and the busy-time sum (slot 1).  Transmission starts at the later of
    [now] and busy-until; returns the finish, the new busy-until. *)

val busy_fraction : floatarray -> created_at:float -> now:float -> float
(** Busy-time sum of {!serve} registers, minus the part scheduled beyond
    [now], over the time elapsed since [created_at]; at most 1. *)

type t

val create : unit -> t
(** Allocate reusable scratch storage.  One per hop slot in the arena;
    reconfigured per run. *)

val configure :
  t ->
  bandwidth_bps:float ->
  propagation:float ->
  queue_limit:int option ->
  packet_size:int ->
  cross:(Prng.Rng.t * float * int) option ->
  in_t:Fvec.t ->
  in_tag:Fvec.t ->
  unit
(** Reset for a new run at simulated time 0.  [cross] is
    [(rng, rate_pps, size_bytes)] for a Poisson cross source whose
    [rng] must be the same split-off child the event-loop topology would
    hand it (chain order: hops with cross traffic, back to front); the
    first block of inter-arrival draws is pre-filled here.  [in_t] /
    [in_tag] are the upstream stage's chunk-output buffers, consumed in
    full on every {!advance}. *)

val advance : t -> until:float -> unit
(** Process every input send, cross arrival, transmit finish and far-end
    delivery with timestamp <= [until], in time order.  Padded
    deliveries of the chunk are appended to {!out_times} / {!out_tags}
    (cleared on entry).  Raises {!Tie} on any exact cross-stream time
    tie. *)

val out_times : t -> Fvec.t
val out_tags : t -> Fvec.t
(** This chunk's padded deliveries to the next stage, time-ordered. *)

val trace : t -> Tracebuf.t
(** Whole-run deferred [packet.dropped] records. *)

val chunk_events : t -> int
(** Events the event loop would have dispatched for the last {!advance}
    chunk: cross arrivals, and padded packets' finishes and deliveries.
    A cross packet exits at its hop with no departure event
    ({!Link.send_exiting}); input sends happen inside the upstream
    stage's events and are counted there. *)

val dropped : t -> int
val enqueued : t -> int

val queue_hwm : t -> int
(** Exact link-queue depth high-water mark (the
    [netsim.link.queue_hwm] gauge observation). *)

val max_pending : t -> int
(** High-water mark of pending finish + delivery trains (run scope),
    an input to the orchestrator's event-queue-depth surrogate. *)

val utilization : t -> now:float -> float
(** {!busy_fraction} of this stage at simulated time [now]. *)
