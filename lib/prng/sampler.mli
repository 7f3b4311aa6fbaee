(** Random-variate samplers built on {!Rng}.

    Each sampler documents its algorithm and parameter constraints; all
    raise [Invalid_argument] on parameter violations, a NaN parameter
    included.  Time quantities in
    the simulator are seconds, so these are plain float samplers. *)

val uniform : Rng.t -> lo:float -> hi:float -> float
(** Uniform on [lo, hi).  Requires [lo <= hi], so a NaN bound raises. *)

val normal : Rng.t -> mu:float -> sigma:float -> float
(** Gaussian via Marsaglia's polar method.  [sigma >= 0]; a NaN [mu]
    or [sigma] raises. *)

val truncated_normal_pos : Rng.t -> mu:float -> sigma:float -> float
(** Gaussian conditioned on being strictly positive, by rejection.  Used for
    VIT timer intervals, which must be positive.  Requires [mu > 0]; for the
    regimes used here (mu >> sigma or mu ~ sigma) rejection is cheap.
    Requires [sigma >= 0]; a NaN [mu] or [sigma] raises. *)

val exponential : Rng.t -> rate:float -> float
(** Exponential with rate [rate] (mean 1/rate) by inversion. [rate > 0]. *)

val exponential_fill : Rng.t -> rate:float -> floatarray -> n:int -> unit
(** Fill [buf.(0) .. buf.(n-1)] with draws bit-identical to [n]
    successive {!exponential} calls on the same generator — the batched
    prefill behind the fused scenario kernels.  The generator advances
    exactly as the scalar loop would, so on a split-off stream it is safe
    to fill more draws than a consumer ends up using.  Raises
    [Invalid_argument] unless [rate > 0] and [1 <= n <= length buf]
    (zero-length buffers are rejected). *)

val pareto : Rng.t -> shape:float -> scale:float -> float
(** Pareto type-I: support [scale, inf), P(X > x) = (scale/x)^shape.
    [shape > 0], [scale > 0]; NaN raises.  Heavy-tailed on/off
    periods. *)

val poisson : Rng.t -> mean:float -> int
(** Poisson counts.  Knuth multiplication for small means, normal
    approximation with continuity correction for [mean > 60].
    [mean >= 0]; a NaN [mean] raises (it would never end the Knuth
    loop). *)

val geometric : Rng.t -> p:float -> int
(** Number of failures before first success, [0 < p <= 1]. *)

val bernoulli : Rng.t -> p:float -> bool
(** True with probability [p], [0 <= p <= 1]; a NaN [p] raises rather
    than always returning [false]. *)

val categorical : Rng.t -> weights:float array -> int
(** Index drawn proportionally to non-negative [weights] (need not sum
    to 1; at least one must be positive).  A negative or NaN weight
    raises. *)

val shuffle : Rng.t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
