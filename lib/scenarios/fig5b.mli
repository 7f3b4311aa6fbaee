(** Figure 5(b): theoretical sample size needed for a 99% detection rate
    as a function of the VIT timer σ_T.

    The paper's headline: at σ_T = 1 ms the adversary needs more than 10¹¹
    PIATs — virtually impossible to collect while the payload holds one
    rate.  Pure closed-form (Theorems 2 and 3) evaluated at the variance
    ratio implied by the calibrated gateway jitter. *)

type point = {
  sigma_t : float;
  r : float;
  n_variance : float;   (** samples needed using sample variance *)
  n_entropy : float;
}

val run : ?seed:int -> ?csv_dir:string -> Format.formatter -> point list
(** The table at σ_T = 1 µs … 1 ms, log-spaced, for a 99% detection
    rate.  The variance ratio comes from a fresh gateway calibration run
    ({!Calibration.measure_gateway_sigmas}); that run simulates, so it
    raises [Starvation.Tap_starved] / [Desim.Sim.Event_budget_exceeded]
    as [System.run] does. *)
