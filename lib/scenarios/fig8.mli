(** Figure 8: detection rate over a 24-hour day on (a) a campus network and
    (b) a wide-area path (the paper's OSU → TAMU Internet route, 15
    routers), CIT padding, tap in front of the receiver gateway.

    Expected shape: on the campus path variance/entropy detection stays
    high essentially all day; on the WAN it is much lower overall but
    still exceeds ~0.65 in the small hours (≈2–4 AM), the paper's warning
    that CIT is unsafe even behind many noisy routers. *)

type kind = Campus | Wan

type point = {
  hour : float;
  utilization : float;       (** per-congested-hop utilization at that hour *)
  r_hat : float;
  scores : Workload.scored list;
}

type t = { kind : kind; sample_size : int; points : point list }

val hops_for : kind -> hour:float -> Netsim.Topology.hop_spec array
(** Campus: 4 hops at the campus diurnal utilization.  WAN: 15 hops — 6
    congested at the WAN diurnal utilization plus 9 well-provisioned at
    1/6 of it (the paper's path crosses a few loaded exchange points and
    many quiet backbone hops). *)

val run :
  ?scale:float ->
  ?seed:int ->
  ?half_width:float ->
  kind:kind ->
  ?csv_dir:string ->
  Format.formatter ->
  t
(** Every two hours across the day (0, 2, …, 22); sample size 1000
    (paper); up to 16 sliding windows per class per time point (scaled,
    floor 6), collected by
    {!Workload.collect_windowed} (overlapping, default stride
    [sample_size/16]) — the long WAN path is simulated once per
    (hour, class) shard instead of once per window, which is what makes
    panel (b) tractable.  [half_width] enables Wilson-CI early stopping.
    Each time point is simulated quasi-statically at that hour's
    utilization.  Raises [Sweep.Sweep_internal_error] if the sweep
    journal layer misbehaves. *)
