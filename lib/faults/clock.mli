(** Gateway clock faults: systematic drift, missed timer fires, and fire
    coalescing after overruns.

    The paper's timer is ideal — every period T produces exactly one fire.
    Real timers drift (oscillator rate error), miss fires (the interrupt is
    masked through a whole period), and handle overruns in one of two ways:
    {e coalescing} (the missed expirations collapse into the next fire,
    leaving a k·T hole in the cover stream) or {e catch-up} (the kernel
    replays the missed fires back-to-back, producing a burst).  Both
    signatures are visible to a tap and neither appears in the closed-form
    theorems.

    The faults are expressed as a stateful interval generator layered onto
    an unmodified {!Padding.Timer.law}; plug the result into
    [Padding.Gateway.create ~interval] (or any {!Desim.Sim.every} train).
    One generator serves one timer train; it survives gateway restarts. *)

type spec = {
  drift : float;
      (** Fractional clock-rate error: intervals are scaled by
          [1. +. drift].  Must be finite and > -1 (a clock cannot run
          backwards, and an infinite drift makes every interval [inf]). *)
  miss_prob : float;
      (** Probability, per scheduled fire, that the fire is silently
          missed; in \[0, 1). *)
  coalesce : bool;
      (** [true]: missed fires are absorbed — the wire sees one interval
          of (k+1) periods.  [false]: after the overrun, the k missed
          fires are replayed back-to-back at {!catchup_spacing}. *)
  max_consecutive_misses : int;
      (** Cap on k, >= 1; bounds the hole/burst length. *)
}

val ideal : spec
(** No drift, no misses — the identity layer. *)

val validate : spec -> unit
(** Raises [Invalid_argument] on a drift that is NaN, <= -1 or not
    finite, a [miss_prob] outside \[0, 1) or [max_consecutive_misses]
    < 1. *)

val catchup_spacing : float
(** Spacing of replayed catch-up fires (1 µs): effectively back-to-back
    relative to a millisecond-scale period, but strictly positive as
    {!Desim.Sim.every} requires. *)

val intervals :
  ?sim:Desim.Sim.t ->
  spec -> law:Padding.Timer.law -> rng:Prng.Rng.t -> unit -> float
(** [intervals spec ~law ~rng] is a generator of successive faulty
    intervals; with [spec = ideal] it is distributionally identical to
    drawing from [law] directly.  Pass [?sim] to timestamp the
    [timer.miss] / [timer.catchup] events in the [Obs.Trace] stream;
    the generator itself never reads the clock. *)
