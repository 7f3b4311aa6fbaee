(** Fused padding-gateway kernel.

    Executes the {!Gateway} CIT/VIT state machine as a batch loop over
    merged time-ordered trains (pre-generated Poisson payload arrivals,
    timer fires, pending emissions) instead of per-event dispatch, with
    the same RNG draws in the same order.  It owns {!emit_time}, which
    {!Gateway} calls too (for every scheme it runs, {!Adaptive}
    included).  Scratch state is reusable
    across runs (arena-backed via [Scenarios.Arena]).  Once its buffers
    have grown, the loop allocates nothing: arrivals, fires, emissions,
    occupancy counts, and the timer and jitter draws, which
    {!Timer.draw_into} and {!Jitter.latency_into} write into a register
    slot.  [test/test_kernel.ml] holds it at 0 words per fire for every
    timer law under every jitter model.

    Stream encoding shared with [Netsim.Linkstage]: an emission is a
    (time, tag) float pair where a payload's tag is its creation time
    and a dummy's tag is NaN. *)

exception Tie
(** An exact time tie between a pending payload arrival and a pending
    timer fire — ordered by queue sequence in the event loop, not
    reproducible here.  The orchestrator catches this and falls back to
    the event-loop path for the whole run. *)

type t

val create : unit -> t
(** Allocate reusable scratch storage (rings, stream buffers, trace
    buffer).  One per arena; reconfigured per run. *)

val configure :
  t ->
  rng_payload:Prng.Rng.t ->
  rng_gateway:Prng.Rng.t ->
  timer:Timer.law ->
  jitter:Jitter.t ->
  packet_size:int ->
  payload_rate:float ->
  unit
(** Reset the scratch for a new run starting at simulated time 0.
    Pre-fills the first block of payload inter-arrival draws from
    [rng_payload] (a dedicated split-off stream, so over-drawing is
    unobservable) and draws the first timer interval from
    [rng_gateway] — exactly the draws the event-loop path makes at
    source/gateway creation. *)

val emit_time :
  Jitter.t ->
  Prng.Rng.t ->
  now:float ->
  sends_payload:bool ->
  arrivals_in_window:int ->
  floatarray ->
  int ->
  unit
(** [emit_time jitter rng ~now ~sends_payload ~arrivals_in_window clock i]
    advances a gateway's emission clock [clock.(i)] from its last
    emission instant to this fire's: [now] plus one
    {!Jitter.latency_into} draw, clamped to at least the last instant
    [+ 1e-12].  Allocates nothing. *)

val advance : t -> until:float -> unit
(** Process every arrival, fire and emission event with timestamp <=
    [until], in time order, with [Gateway.on_fire]'s state machine and
    {!emit_time}.  Emissions of the chunk are appended to {!out_times} /
    {!out_tags} (cleared on entry).  Raises {!Tie} on an
    arrival-vs-fire time tie. *)

val out_times : t -> Netsim.Fvec.t
val out_tags : t -> Netsim.Fvec.t
(** This chunk's emissions, time-ordered.  Valid until the next
    {!advance}. *)

val trace : t -> Netsim.Tracebuf.t
(** Whole-run deferred [timer.fire] / [packet.sent] trace records. *)

val occupancy : t -> int array
(** Whole-run queue occupancy: at index [q], the number of fires that
    found [q] payload packets queued (pre-pop); 0 past the longest
    queue.  For the [padding.gateway.queue_occupancy] histogram flush.
    Valid until the next {!configure}. *)

val chunk_events : t -> int
(** Events the event loop would have dispatched for the last {!advance}
    chunk (arrivals + fires + emissions). *)

val fires : t -> int
val payload_sent : t -> int
val dummy_sent : t -> int

val generated : t -> int
(** Payload arrival events processed — [Traffic_gen.generated]. *)

val max_pending : t -> int
(** High-water mark of the pending-emission ring (run scope), an input
    to the orchestrator's event-queue-depth surrogate. *)

val overhead : t -> float
(** {!Qos.dummy_fraction} of this run's sends. *)
