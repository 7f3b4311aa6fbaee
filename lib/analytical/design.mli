(** Design guidelines (paper §6): configure VIT padding so the system meets
    a detection-rate budget against a bounded adversary.

    The designer knows the gateway jitter magnitudes (measurable offline),
    assumes the adversary taps at the worst-case point (σ_net = 0) and can
    collect at most [n_max] PIATs at one payload rate, and wants the
    detection rate by the strongest feature to stay below [v_max]. *)

type requirement = {
  sigma_gw_low : float;   (** measured gateway jitter σ at the low rate *)
  sigma_gw_high : float;  (** ... at the high rate; >= sigma_gw_low *)
  n_max : int;            (** adversary's sample-size budget, >= 2 *)
  v_max : float;          (** tolerated detection rate, in (0.5, 1) *)
}

val worst_feature_v : r:float -> n:int -> float
(** max over the paper's three features of the theoretical detection rate
    — variance and entropy dominate mean everywhere, so this is
    max(v_variance, v_entropy, v_mean). *)

val required_sigma_t : requirement -> float
(** Smallest timer σ_T meeting the requirement, found by bisection on the
    monotone map σ_T ↦ worst-feature detection rate.  Returns 0 if CIT
    already satisfies it.  Raises [Invalid_argument] on a malformed
    requirement. *)

val overhead_fraction : payload_rate_pps:float -> timer_mean:float -> float
(** Bandwidth accounting for the guideline discussion: fraction of padded
    packets that are dummies when a payload stream of the given rate rides
    a timer of the given mean period (= 1 − rate·τ, clamped to [0,1]).
    [payload_rate_pps >= 0], [timer_mean > 0]. *)
