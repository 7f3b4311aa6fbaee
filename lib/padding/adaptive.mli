(** Adaptive traffic masking à la Timmerman (paper §2, ref [23]) — the
    bandwidth-saving alternative the paper argues against.

    The gateway monitors the recent payload rate and stretches the timer
    period toward 40 ms ({!max_period}) when payload is light, shrinking
    back to 10 ms under load.  This saves dummy bandwidth but lets
    large-scale rate variations through: the padded stream's *mean* PIAT
    now tracks the payload rate, so even the weak sample-mean feature
    detects it.  Provided to quantify that trade-off (see the
    [adaptive_tradeoff] example and the ablation bench).

    It is a period policy on one {!Gateway}, handed over as the
    gateway's [?interval] (nominal law [Timer.Constant max_period]).
    The gateway does everything else: queueing, the emission instant
    ({!Kernel.emit_time}, NIC-interrupt blocking term included), dummy
    insertion, the [padding.gateway.*] metrics and the trace records.
    The first period is 40 ms.  After each fire the policy sets the next
    one to min(40 ms, max(10 ms, 1 / max(1, r·max(0.1, pressure)))),
    where r is the payload rate over the last 1 s and
    pressure = 1 + 0.5·(queue length − 0.5): it aims the send rate just
    above the payload rate, at a backlog of half a packet. *)

val max_period : float
(** 40 ms, the slowest the gateway fires. *)

type t

val create :
  Desim.Sim.t ->
  rng:Prng.Rng.t ->
  jitter:Jitter.t ->
  ?packet_size:int ->
  ?buffers:Gateway.Buffers.t ->
  dest:Netsim.Link.port ->
  unit ->
  t
(** [rng], [jitter], [packet_size], [buffers] and [dest] go to the
    {!Gateway}, as in {!Gateway.create}. *)

val input : t -> Netsim.Link.port
(** Payload port: {!Gateway.input} (which rejects a non-payload packet
    with [Invalid_argument]), then the arrival joins the rate window. *)

val stop : t -> unit
val overhead : t -> float
val current_period : t -> float
