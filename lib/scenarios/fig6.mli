(** Figure 6: CIT padding with cross traffic in the laboratory — empirical
    detection rate vs. the shared link's utilization.

    The padded stream and a cross-traffic source share one router output
    link (the Marconi ESR-5000 of the paper); the adversary taps just
    behind that router.  Expected shape: variance/entropy detection decays
    from ≈1.0 toward the floor as utilization grows (σ_net up, r down),
    entropy staying above variance (variance is outlier-sensitive), mean
    flat near 0.5. *)

type point = {
  utilization : float;   (** requested cross load as a fraction of link rate *)
  measured_utilization : float;  (** achieved on the shared link *)
  sigma_low : float;     (** tapped PIAT σ under ω_l, showing σ_net growth *)
  r_hat : float;
  scores : Workload.scored list;
}

type t = { sample_size : int; points : point list }

val default_utilizations : float list
(** 0.05 … 0.50 in steps of 0.05. *)

val hop_for_utilization :
  utilization:float -> burst:[ `Poisson | `On_off of float * float * float option ] ->
  Netsim.Topology.hop_spec
(** The lab hop: {!Calibration.lab_bandwidth_bps} output link with a cross
    source at [utilization] of it.  Exposed for the ablations and Fig. 8. *)

val run :
  ?scale:float ->
  ?seed:int ->
  ?sample_size:int ->
  ?utilizations:float list ->
  ?half_width:float ->
  ?csv_dir:string ->
  Format.formatter ->
  t
(** Default sample size 1000 (paper), up to 40 sliding windows per class
    per point (scaled, floor 6), Poisson cross traffic.  Windows are
    collected by {!Workload.collect_windowed} (overlapping, default
    stride [sample_size/16]); [half_width] enables Wilson-CI early
    stopping.  The sweep digest folds the full window plan, so changing
    any knob invalidates checkpoints instead of replaying stale cells.
    Raises [Sweep.Sweep_internal_error] if the sweep journal layer
    misbehaves. *)
