(** Scalar root finding, used to locate the Bayes decision threshold d where
    the two class-conditional densities cross (paper eq. 3). *)

val bisect : ?eps:float -> ?max_iter:int -> (float -> float) -> lo:float -> hi:float -> float
(** Bisection on a sign-changing bracket; raises [Invalid_argument] if
    [f lo] and [f hi] have the same strict sign.  [eps] is the interval
    tolerance (default 1e-12 relative to bracket width). *)
