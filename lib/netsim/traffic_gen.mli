(** Traffic sources.

    All sources push freshly-created packets into a destination port and
    run until stopped.  Interarrival randomness comes from a caller-supplied
    {!Prng.Rng.t} so every workload is reproducible. *)

type t
(** A running source; {!stop} halts it permanently. *)

val stop : t -> unit
val generated : t -> int
(** Packets emitted so far. *)

val cbr :
  Desim.Sim.t ->
  rate_pps:float ->
  size_bytes:int ->
  kind:Packet.kind ->
  dest:Link.port ->
  unit ->
  t
(** Constant bit rate: one packet every [1/rate_pps] seconds, first at one
    full period.  [rate_pps > 0]. *)

val poisson :
  Desim.Sim.t ->
  rng:Prng.Rng.t ->
  rate_pps:float ->
  size_bytes:int ->
  kind:Packet.kind ->
  dest:Link.port ->
  unit ->
  t
(** Poisson arrivals (exponential interarrivals) at [rate_pps > 0]. *)

val poisson_sized :
  Desim.Sim.t ->
  rng:Prng.Rng.t ->
  rate_pps:float ->
  size_of:(Prng.Rng.t -> int) ->
  kind:Packet.kind ->
  dest:Link.port ->
  unit ->
  t
(** Poisson arrivals with a per-packet size drawn from [size_of] (must
    return positive sizes) — variable-size payload for the size-padding
    extension. *)

val on_off :
  Desim.Sim.t ->
  rng:Prng.Rng.t ->
  rate_on_pps:float ->
  mean_on:float ->
  mean_off:float ->
  ?pareto_shape:float ->
  size_bytes:int ->
  kind:Packet.kind ->
  dest:Link.port ->
  unit ->
  t
(** Bursty on/off source: during ON periods, Poisson at [rate_on_pps];
    OFF periods silent.  Period lengths are exponential with the given
    means, or Pareto with [pareto_shape] (> 1) and matching means for the
    self-similar cross traffic of campus/WAN scenarios.  Long-run average
    rate = rate_on_pps * mean_on / (mean_on + mean_off). *)

val modulated_arrivals :
  Desim.Sim.t ->
  rng:Prng.Rng.t ->
  rate_fn:(float -> float) ->
  rate_max:float ->
  f:(float -> unit) ->
  unit ->
  t
(** Non-homogeneous Poisson arrival instants by Lewis–Shedler thinning:
    instantaneous rate [rate_fn now] (must lie in [0, rate_max],
    [rate_max > 0]).  [f now] runs at each accepted arrival and decides
    what it means.
    The fleet mux uses this to demultiplex one superposed arrival
    process onto many flows — picking the flow, counting it, and
    building the packet itself — at O(1) per arrival instead of one
    event source per flow.  [generated] counts accepted arrivals. *)
