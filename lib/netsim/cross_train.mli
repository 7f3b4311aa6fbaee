(** A hop's cross-traffic arrival process, run with no events.

    A Poisson train, or an on/off train: Poisson arrivals during ON
    periods, silence during OFF periods, the period lengths exponential
    or Pareto with the given means.  The train is a state machine over
    one pending event: an arrival, or an on/off phase change (an ON
    period ending, the next ON period starting).  {!Link.attach_cross}
    registers it with the simulator as a train
    ({!Desim.Sim.add_train}), which runs each event between dispatches
    in the order an event per arrival and per phase change would have
    popped.  It draws from its own generator, in the order that one
    event per arrival and per phase change draws.  Its times live in a
    floatarray, so no float crosses a module boundary. *)

type t

val create :
  rng:Prng.Rng.t ->
  rate_pps:float ->
  burst:[ `Poisson | `On_off of float * float * float option ] ->
  start:float ->
  t
(** A train started at [start]: its pending event is its first arrival,
    one interarrival after [start] (an on/off train first draws its
    first ON period, which starts at [start]).  [rate_pps] is the
    long-run average rate: an on/off train's ON rate is
    [rate_pps / duty], duty = mean_on / (mean_on + mean_off).
    [`On_off (mean_on, mean_off, pareto_shape)] draws its periods from an
    exponential, or a Pareto with [pareto_shape] and the same mean.  The
    parameters must be ones {!Topology.validate} accepts. *)

val times : t -> floatarray
(** Slot 0: the time of the pending event (infinity once stopped). *)

val step : t -> bool
(** Run the pending event and draw the next one's time into slot 0 of
    {!times}.  True when it was an arrival, at the time slot 0 held. *)

val stop : t -> unit
(** No further event: slot 0 becomes infinity. *)

val generated : t -> int
(** Arrivals so far. *)
