(** QoS accounting for padded flows — the NetCamo angle (paper §2, ref [9]).

    A CIT gateway serves payload at timer epochs: one payload packet per
    fire.  The payload therefore sees an M/D/1-like queue with
    deterministic "service" τ (the timer period).  The paper's NetCamo
    work stresses that the padding rate bounds both the bandwidth overhead
    and the worst-case payload delay; this module provides the analytic
    side, validated against the simulated receiver latency in the tests. *)

val utilization : payload_rate_pps:float -> timer_mean:float -> float
(** ρ = λ·τ.  Stability requires ρ < 1: the timer must fire at least as
    often as payload arrives. *)

val is_stable : payload_rate_pps:float -> timer_mean:float -> bool

val mean_delay : payload_rate_pps:float -> timer_mean:float -> float
(** Expected payload sojourn time for Poisson payload of rate λ behind a
    CIT timer of period τ:

      E\[D\] = τ/2  (residual wait for the next fire)
            + τ·ρ/(2(1−ρ))  (M/D/1 queueing)
            + 0             (transmission is accounted by the link model)

    Raises [Invalid_argument] if unstable (ρ >= 1). *)

val delay_quantile :
  payload_rate_pps:float -> timer_mean:float -> p:float -> float
(** Approximate p-quantile of the sojourn time using the exponential-tail
    (large-deviations) form D_p ≈ E[W] − ln(1−p)·σ_eff with the M/D/1
    effective scale; p in (0, 1).  Coarse but monotone and finite —
    intended for budgeting, not exactness. *)

val min_timer_rate :
  payload_rate_pps:float -> max_mean_delay:float -> float
(** Smallest timer frequency 1/τ (fires per second) such that the mean
    delay bound holds: the design-side inverse of {!mean_delay}.  Raises
    if the bound is unachievable ([max_mean_delay <= 0]). *)

val overhead : payload_rate_pps:float -> timer_mean:float -> float
(** Dummy fraction 1 − ρ (clamped), same as
    {!Analytical.Design.overhead_fraction} but kept here so the padding
    layer is self-contained. *)

val dummy_fraction : payload_sent:int -> dummy_sent:int -> float
(** Measured overhead: the fraction of sent packets that were dummies
    (0 when none were sent). *)
