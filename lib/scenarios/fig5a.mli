(** Figure 5(a): VIT padding — empirical detection rate vs. the timer
    standard deviation σ_T at a fixed (large) sample size.

    Expected shape: as σ_T grows past the gateway-jitter scale the variance
    ratio r collapses to 1 and every feature's detection rate drops to the
    0.5 floor — the paper's core design recommendation. *)

type point = {
  sigma_t : float;          (** seconds *)
  r_hat : float;
  r_predicted : float;      (** from calibration σ_gw and this σ_T *)
  scores : Workload.scored list;
}

type t = {
  sample_size : int;
  calibration : Calibration.gateway_sigmas;
  points : point list;
}

val run :
  ?scale:float -> ?seed:int -> ?csv_dir:string -> Format.formatter -> t
(** σ_T = 0 (CIT baseline), 1, 2, 5, 10, 20, 50, 100 µs, each a truncated
    normal interval law around the calibration mean (constant at 0);
    sample size 2000 (paper's Fig. 5(a)); 24 windows per class per point
    (scaled, floor 6).  Raises [Starvation.Tap_starved] /
    [Desim.Sim.Event_budget_exceeded] from the calibration run (as
    [System.run] does) and [Sweep.Sweep_internal_error] if the sweep
    journal layer misbehaves. *)
