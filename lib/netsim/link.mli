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

val port : t -> port
(** [send] as a port, for wiring into upstream components. *)

val sent : t -> int
(** Packets fully transmitted so far. *)

val dropped : t -> int
val queue_depth : t -> int
(** Packets currently waiting or in transmission. *)

val utilization : t -> float
(** Fraction of elapsed time (since creation) the wire was transmitting
    ({!Linkstage.busy_fraction}). *)

val note_batch : Linkstage.t -> unit
(** Publish a fused stage's whole-run counts into the link metrics. *)
