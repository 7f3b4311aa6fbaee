(** Confidence intervals for the empirical detection rates.

    A detection-rate estimate is a binomial proportion (correct
    classifications out of held-out trials); every empirical number in the
    figure tables deserves an interval, and with the small held-out sets
    the scenarios use, Wilson's score interval is markedly better behaved
    than the naive normal ("Wald") one. *)

type interval = { lo : float; hi : float }

val wilson : successes:int -> trials:int -> confidence:float -> interval
(** Wilson score interval for a binomial proportion.
    [0 <= successes <= trials], [trials >= 1], [confidence] in (0, 1). *)

val contains : interval -> float -> bool
val width : interval -> float
