(** Sender security gateway (the paper's GW1, §3.2).

    Incoming payload packets from the protected subnet are queued.  A timer
    fires at intervals drawn from a {!Timer.law}; the interrupt routine then
    sends the head-of-queue payload packet if one is waiting, otherwise a
    dummy packet, after a {!Jitter}-distributed processing latency.  Every
    emitted packet has the same constant size, so the wire carries one
    indistinguishable, (nominally) constant-rate stream regardless of the
    payload behind it.  Each fire's emission instant is
    {!Kernel.emit_time}, the rule the fused {!Kernel} loop calls too.
    This is the one sender gateway: {!Adaptive} is a period policy on it.
    The module owns the [padding.gateway.*] metrics. *)

type t

module Buffers : sig
  type t = {
    queue : Netsim.Packet.t Netsim.Ring.t;
    arrivals : Netsim.Fring.t;
    pending : Netsim.Packet.t Netsim.Ring.t;
  }
  (** The gateway's growable per-instance state (payload queue, arrival
      window, pending-emission ring).  Sweep harnesses keep one [Buffers.t]
      per worker and pass it to successive gateways so steady-state storage
      is allocated once, not once per run.  A period policy may read
      [queue] (the payload backlog), as {!Adaptive} does; [arrivals] holds
      only the arrivals of the last {!Jitter.irq_window}. *)

  val create : unit -> t

  val clear : t -> unit
  (** Empty all three buffers, keeping their capacity. *)
end

val create :
  Desim.Sim.t ->
  rng:Prng.Rng.t ->
  timer:Timer.law ->
  jitter:Jitter.t ->
  ?packet_size:int ->
  ?queue_limit:int ->
  ?interval:(unit -> float) ->
  ?buffers:Buffers.t ->
  dest:Netsim.Link.port ->
  unit ->
  t
(** [packet_size] defaults to 500 bytes; [queue_limit] bounds the payload
    queue (default unbounded; overflow drops payload packets and counts
    them).  The timer starts at creation.  [interval] overrides the
    interval sequence (default: draws from [timer]): it is called once at
    creation for the first fire and then right after each fire, so it can
    act as a period policy.  {!Adaptive} sets the period that way, and the
    fault-injection library layers clock drift, missed fires and
    coalescing on top of an unmodified gateway.  [timer] is validated
    either way.  [buffers] supplies recycled internal buffers (cleared on
    create); at most one live gateway may use a given [Buffers.t] at a
    time. *)

val input : t -> Netsim.Link.port
(** Port on which payload traffic from the protected subnet arrives.
    Raises [Invalid_argument] if fed a non-payload packet. *)

val stop : t -> unit
(** Stop the timer permanently. *)

val payload_sent : t -> int
val dummy_sent : t -> int
val payload_dropped : t -> int
val queue_length : t -> int

val overhead : t -> float
(** Fraction of emitted packets that are dummies — the bandwidth price of
    the countermeasure. *)

val note_batch : Kernel.t -> unit
(** Publish a fused kernel run's counts and occupancy observations into
    the gateway metrics. *)
