(** Padding timer interval laws (the paper's T in X = T + δ_gw + δ_net).

    CIT = constant interval timer: T ≡ τ, σ_T = 0.
    VIT = variable interval timer: T random with E[T] = τ, σ_T > 0.
    The paper's analysis assumes a normal T; we additionally support
    uniform and exponential laws for the ablation on the interval
    distribution (only the variance enters the theorems). *)

type law =
  | Constant of float
      (** CIT with period τ > 0. *)
  | Normal of { mean : float; sigma : float }
      (** VIT: N(mean, sigma²) truncated to positive values (a timer cannot
          fire in the past).  mean > 0, sigma >= 0. *)
  | Uniform of { mean : float; half_width : float }
      (** VIT: uniform on [mean - hw, mean + hw], 0 < hw < mean. *)
  | Exponential of { mean : float }
      (** VIT: exponential with the given mean > 0 (σ_T = mean). *)

val validate : law -> unit
(** Raises [Invalid_argument] on out-of-domain parameters, NaN and
    infinity included. *)

val mean : law -> float
val sigma : law -> float
(** Standard deviation of the interval (ignoring the negligible truncation
    of the normal law in the regimes used here, σ << mean). *)

type sampler
(** A law ready to draw from: its derived parameters (a uniform law's
    bounds, an exponential law's rate) are computed once, so
    {!draw_into} boxes no float. *)

val sampler : law -> sampler
(** The law's sampler.  Call it once per timer train, not per draw. *)

val draw_into : sampler -> Prng.Rng.t -> floatarray -> int -> unit
(** [draw_into s rng dst i] writes the next interval into [dst.(i)];
    always > 0 for a valid law.  Allocates nothing.  The one timer draw:
    the fused kernel writes into its registers, [Gateway]'s default
    interval hook and [Faults.Clock] into a slot of their own.  A
    normal law with [sigma = 0] and a constant law draw nothing. *)
