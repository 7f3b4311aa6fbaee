(** Fused padding-gateway kernel.

    Executes the {!Gateway} CIT/VIT state machine as a batch loop over
    merged time-ordered trains (pre-generated Poisson payload arrivals,
    timer fires, pending emissions) instead of per-event dispatch, with
    the same RNG draws in the same order.  It owns {!emit_time}, which
    {!Gateway} calls too (for every scheme it runs, {!Adaptive}
    included).  Scratch state is reusable
    across runs (arena-backed via [Scenarios.Arena]).  The loop's own work
    (arrivals, fires, emissions, occupancy observations) allocates
    nothing once its buffers have grown; the timer and jitter draws,
    which live in other modules, return boxed floats, so a fire costs
    up to the per-fire ceiling that [test/test_kernel.ml] asserts
    (0 words for CIT without jitter).

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
  last_emit:float ->
  sends_payload:bool ->
  arrivals_in_window:int ->
  float
(** Emission instant of a timer fire at [now]: [now] plus one
    {!Jitter.latency_at} draw, clamped to at least [last_emit + 1e-12]. *)

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

val occupancy : t -> Netsim.Fvec.t
(** Whole-run queue-occupancy observations (one per fire, pre-pop), for
    the [padding.gateway.queue_occupancy] histogram flush. *)

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
