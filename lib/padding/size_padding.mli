(** Packet-size padding — the companion countermeasure the paper assumes
    into place (§3.2 remark 3: "all packets have a constant size ...
    observing the packet size will not provide any useful information";
    ref [7] treats the variable-size case).

    Real payload packets vary in size, and the size *distribution* is
    rate- and application-correlated, so an unpadded size column leaks
    just like the timing column.  This module pads every packet up to a
    constant target size so the wire carries one size only. *)

val pad_port : target:int -> dest:Netsim.Link.port -> Netsim.Link.port
(** [pad_port ~target ~dest] returns a port that re-emits each packet at
    exactly [target] bytes (padding preserves kind and creation time).
    Raises [Invalid_argument] at wire-up if [target <= 0], and per packet
    if one exceeds [target] (choose the target as the network MTU; the
    fragmentation path of ref [7] is out of scope). *)
