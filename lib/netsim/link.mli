(** Point-to-point link with serialization and propagation delay.

    A link is a single transmitter: a packet occupies the wire for
    [size * 8 / bandwidth] seconds; packets arriving while the wire is busy
    wait in FIFO order.  This serialization queue behind cross traffic is
    precisely the source of the paper's δ_net disturbance.  The link
    owns {!validate} and the [netsim.link.*] counters; it serves packets
    with {!Linkstage.serve}, the rule the fused stage calls too. *)

type t

type port = Packet.t -> unit
(** A packet consumer, invoked at the packet's arrival instant. *)

val create :
  Desim.Sim.t ->
  bandwidth_bps:float ->
  ?propagation:float ->
  ?queue_limit:int ->
  dest:port ->
  unit ->
  t
(** [queue_limit] bounds the number of packets waiting or in transmission
    (default unbounded); beyond it packets are dropped and counted.
    Raises [Invalid_argument] when {!validate} rejects the parameters. *)

val validate :
  bandwidth_bps:float -> propagation:float -> queue_limit:int option -> unit
(** [bandwidth_bps > 0], [propagation >= 0] (NaN fails both),
    [queue_limit >= 1]; else [Invalid_argument].  Called by {!create}
    and, per hop, by {!Topology.validate}. *)

val send : t -> Packet.t -> unit
(** Enqueue a packet for transmission at the current simulation time. *)

val send_exiting : t -> Packet.t -> unit
(** {!send} for a packet that leaves the network at this link's far end
    instead of reaching [dest]: dropped, or served and counted the same,
    but no event is scheduled.  Its finish time and the queue seq its
    departure event would have taken ({!Desim.Sim.next_seq}) are kept,
    and the departure settles at the next send and whenever {!sent},
    {!queue_depth} or {!exited} is read, once the event loop would have
    popped it ({!Desim.Sim.dispatch_seq} breaks a time tie).  Every
    observable count is the one an event per departure gives. *)

val sent : t -> int
(** Packets fully transmitted so far. *)

val dropped : t -> int
val queue_depth : t -> int
(** Packets currently waiting or in transmission. *)

val exited : t -> int
(** {!send_exiting} packets that reached the far end so far. *)

val utilization : t -> float
(** Fraction of elapsed time (since creation) the wire was transmitting
    ({!Linkstage.busy_fraction}). *)

val publish : t -> unit
(** Add the link's enqueues and drops since the last call to the
    [netsim.link.*] counters, observe its queue high-water mark, and
    emit its deferred [packet.dropped] trace records.  A send touches
    no shared state: call this wherever a run can stop (the event-loop
    driver does at the end, on starving and on an event-budget trip). *)

val note_batch : Linkstage.t -> unit
(** Publish a fused stage's whole-run counts into the link metrics. *)
