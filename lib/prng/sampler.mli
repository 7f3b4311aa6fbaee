(** Random-variate samplers built on {!Rng}.

    Each sampler documents its algorithm and parameter constraints; all
    raise [Invalid_argument] on parameter violations, a NaN parameter
    included.  Time quantities in
    the simulator are seconds, so these are plain float samplers.

    The uniform, normal, truncated normal and exponential samplers draw
    through {!Rng.bits53}.  Each has an [_into] form that writes its
    variate into slot [i] of a caller's [floatarray] ([Invalid_argument]
    if [i] is out of bounds, checked after the draw); the normal and the
    exponential also have a scalar form on the same core.  A float
    returned from another module's function is boxed (modules are
    compiled [-opaque]); the [_into] forms return nothing and allocate
    nothing, so the per-fire timer and jitter draws use them.  Every
    form consumes the same generator outputs and gives the same bits as
    the {!Rng.float} / {!Rng.float_pos} / {!Rng.float_range} draws it
    is built from. *)

val uniform_into : Rng.t -> lo:float -> hi:float -> floatarray -> int -> unit
(** [uniform_into rng ~lo ~hi dst i] writes a uniform draw on [lo, hi)
    into [dst.(i)]: {!Rng.float_range}'s.  Requires [lo <= hi], so a NaN
    bound raises (with [Rng.float_range]'s message). *)

val normal : Rng.t -> mu:float -> sigma:float -> float
(** Gaussian via Marsaglia's polar method.  [sigma >= 0]; a NaN [mu]
    or [sigma] raises. *)

val normal_into : Rng.t -> mu:float -> sigma:float -> floatarray -> int -> unit
(** {!normal}, written into [dst.(i)]. *)

val truncated_normal_pos_into :
  Rng.t -> mu:float -> sigma:float -> floatarray -> int -> unit
(** Writes a Gaussian conditioned on being strictly positive, by
    rejection, into [dst.(i)].  Used for VIT timer intervals, which must
    be positive.  Requires [mu > 0]; for the regimes used here
    (mu >> sigma or mu ~ sigma) rejection is cheap.  After 10 001
    rejected draws it writes [mu].  Requires [sigma >= 0]; a NaN [mu]
    or [sigma] raises. *)

val exponential : Rng.t -> rate:float -> float
(** Exponential with rate [rate] (mean 1/rate) by inversion. [rate > 0]. *)

val exponential_into : Rng.t -> rate:float -> floatarray -> int -> unit
(** {!exponential}, written into [dst.(i)]. *)

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

val bernoulli : Rng.t -> p:float -> bool
(** True with probability [p], [0 <= p <= 1]; a NaN [p] raises rather
    than always returning [false]. *)

val shuffle : Rng.t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
