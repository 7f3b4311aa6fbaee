(** Adaptive traffic masking à la Timmerman (paper §2, ref [23]) — the
    bandwidth-saving alternative the paper argues against.

    The gateway monitors the recent payload rate and stretches the timer
    period toward [max_period] when payload is light, shrinking back to
    [min_period] under load.  This saves dummy bandwidth but lets
    large-scale rate variations through: the padded stream's *mean* PIAT
    now tracks the payload rate, so even the weak sample-mean feature
    detects it.  Provided to quantify that trade-off (see the
    [adaptive_tradeoff] example and the ablation bench).  Emission
    instants come from {!Kernel.emit_time}. *)

type t

val create :
  Desim.Sim.t ->
  rng:Prng.Rng.t ->
  ?min_period:float ->
  ?max_period:float ->
  ?window:float ->
  ?target_queue:float ->
  jitter:Jitter.t ->
  ?packet_size:int ->
  ?buffers:Gateway.Buffers.t ->
  dest:Netsim.Link.port ->
  unit ->
  t
(** Periods default to 10 ms / 40 ms; [window] (default 1 s) is the rate
    estimation horizon; [target_queue] (default 0.5) is the backlog the
    controller aims to keep, in packets.  The controller sets the period to
    min(max_period, max(min_period, 1/(estimated rate + margin))) after
    each fire.  [buffers] supplies recycled internal buffers, as for
    {!Gateway.create}. *)

val input : t -> Netsim.Link.port
val stop : t -> unit
val overhead : t -> float
val current_period : t -> float
