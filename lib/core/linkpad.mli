(** Linkpad — information-assurance evaluation of link-padding
    countermeasures to traffic-analysis attacks.

    This is the top-level API of the reproduction of Fu, Graham, Bettati,
    Zhao & Xuan, "Analytical and Empirical Analysis of Countermeasures to
    Traffic Analysis Attacks" (ICPP 2003).  One call simulates a padded
    system end to end, mounts the paper's KDE-Bayes adversary on the tap,
    and reports the empirical detection rate next to the closed-form
    prediction, plus the defender-side costs.

    For lower-level control use the constituent libraries directly:
    [Padding] (gateways/timers/jitter), [Netsim] (topology), [Adversary]
    (features/classifier), [Analytical] (theorems), [Scenarios] (the
    paper's figures). *)

type padding_scheme =
  | Cit
      (** constant interval timer at the 10 ms calibration period *)
  | Vit of { sigma_t : float }
      (** variable interval timer: N(10 ms, σ_T²), truncated positive *)

type observation_point =
  | At_sender_gateway
      (** tap on the first unprotected link — adversary's best case *)
  | Behind_lab_router of { utilization : float }
      (** tap behind one shared router carrying cross traffic at the given
          link utilization in [0, 1) *)
  | Across_path of { hops : Netsim.Topology.hop_spec array }
      (** tap in front of the receiver after an arbitrary hop chain *)

type spec = {
  padding : padding_scheme;
  observation : observation_point;
  sample_size : int;       (** PIATs per adversary classification attempt *)
  windows_per_class : int; (** feature samples per rate for train+test *)
  seed : int;
}

val default_spec : spec
(** CIT, tap at the gateway, sample size 1000, 40 windows, seed 42. *)

type feature_report = {
  feature : Adversary.Feature.kind;
  empirical_detection : float;
  theoretical_detection : float;
}

type report = {
  spec : spec;
  r_hat : float;              (** measured variance ratio at the tap *)
  sigma_low : float;          (** tapped PIAT σ under ω_l (seconds) *)
  sigma_high : float;
  features : feature_report list;
  worst_detection : float;    (** max empirical detection over features *)
  overhead : float;           (** dummy fraction of transmitted packets *)
  mean_payload_latency : float;  (** seconds, defender-side QoS cost *)
}

val evaluate : spec -> report
(** Run the full pipeline.  Deterministic in [spec.seed].  Raises
    [Scenarios.Starvation.Tap_starved] / [Desim.Sim.Event_budget_exceeded]
    as [Scenarios.System.run] does. *)

val pp_report : Format.formatter -> report -> unit

val recommend_sigma_t :
  ?seed:int -> v_max:float -> n_max:int -> unit -> float
(** Design guideline (paper §6): calibrate the gateway offline, then return
    the smallest VIT σ_T keeping every feature's theoretical detection rate
    at or below [v_max] against an adversary limited to [n_max] PIATs per
    observation.  [v_max] in (0.5, 1), [n_max >= 2].  The calibration
    runs simulate: they raise [Scenarios.Starvation.Tap_starved] /
    [Desim.Sim.Event_budget_exceeded] as [Scenarios.System.run] does. *)
