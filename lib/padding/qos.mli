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

val mean_delay : payload_rate_pps:float -> timer_mean:float -> float
(** Expected payload sojourn time for Poisson payload of rate λ behind a
    CIT timer of period τ:

      E\[D\] = τ/2  (residual wait for the next fire)
            + τ·ρ/(2(1−ρ))  (M/D/1 queueing)
            + 0             (transmission is accounted by the link model)

    Raises [Invalid_argument] if unstable (ρ >= 1). *)

val overhead : payload_rate_pps:float -> timer_mean:float -> float
(** Dummy fraction 1 − ρ (clamped), same as
    {!Analytical.Design.overhead_fraction} but kept here so the padding
    layer is self-contained. *)

val dummy_fraction : payload_sent:int -> dummy_sent:int -> float
(** Measured overhead: the fraction of sent packets that were dummies
    (0 when none were sent). *)
