(** Receiver security gateway (the paper's GW2).

    Strips dummy packets, forwards payload into the protected subnet, and
    keeps the QoS accounting (payload latency) that the paper's NetCamo
    line of work cares about.  Cross packets must have been diverted
    upstream; receiving one raises, as it would indicate a mis-wired
    topology. *)

type t

val create : Desim.Sim.t -> ?dest:(Netsim.Packet.t -> unit) -> unit -> t
(** [dest] receives payload packets after dummy stripping (default: drop
    into a counter-only sink). *)

val port : t -> Netsim.Link.port

val absorb : t -> Netsim.Fvec.t -> Netsim.Fvec.t -> unit
(** [absorb t times tags] receives a batch of (time, tag) packets in
    order, as {!port} would at those delivery times: a NaN tag is a
    dummy, any other tag is a payload packet's creation time.  The fused
    kernel path's receiver; it reads both vectors in place and allocates
    nothing.  Payload is not forwarded to [dest]. *)

val payload_received : t -> int
val dummy_received : t -> int

val mean_payload_latency : t -> float
(** Mean of (arrival time - creation time) over payload packets; 0.0 when
    none arrived yet.  Folded one packet at a time with the float
    operations of [Stats.Descriptive.Acc.add], so it is bit-equal to an
    [Acc]'s mean of the same latencies, on either path. *)

val max_payload_latency : t -> float
