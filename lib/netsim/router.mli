(** Output-queued store-and-forward router.

    Models one hop of the unprotected internetwork: every packet received on
    any input is forwarded onto one shared output link (FIFO, bounded
    queue).  Cross-traffic sources feeding the same router contend with the
    padded stream for the output link, which is how the Marconi ESR-5000
    experiment of the paper creates δ_net.  After traversing the link,
    cross packets are diverted to a local sink instead of the next hop
    (mirroring the paper's Subnet D receiver).  They take the link's
    no-event path ({!Link.send_exiting}): a cross packet costs the event
    loop nothing after its arrival, and a chain hop's cross train
    ({!Link.attach_cross}) takes that path with no arrival event
    either. *)

type t

val create :
  Desim.Sim.t ->
  bandwidth_bps:float ->
  ?propagation:float ->
  ?queue_limit:int ->
  dest:Link.port ->
  unit ->
  t
(** Cross packets exit at this hop after transmission (they still
    consumed link capacity); padded packets continue to [dest]. *)

val port : t -> Link.port
(** Input port (all inputs are merged). *)

val link : t -> Link.t
(** The output link, for utilization/drops inspection. *)

val forwarded : t -> int
(** Packets delivered to [dest]. *)

val diverted : t -> int
(** Cross packets that exited at this hop. *)
