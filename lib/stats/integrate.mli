(** One-dimensional numerical quadrature for the Bayes-error integrals. *)

val simpson : ?eps:float -> ?max_depth:int -> (float -> float) -> lo:float -> hi:float -> float
(** Adaptive Simpson on a finite interval.  [eps] is the absolute tolerance
    per panel (default 1e-10), [max_depth] the recursion cap (default 50).
    Handles [lo > hi] by sign flip. *)
