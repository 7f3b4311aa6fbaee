(** Ablation benches for the design choices DESIGN.md calls out.  Each
    [run_*] prints a table and returns the data it printed. *)

val run_jitter_models :
  ?scale:float -> ?seed:int -> Format.formatter -> (string * float * Workload.scored list) list
(** Mechanistic gateway model vs. the parametric N(0,σ) model the theory
    assumes, σ matched to the mechanistic calibration.  Returns
    (model name, r_hat, scores at n = 1000).  Shows the closed forms track
    both, i.e. the theorems only need the variance ratio.  Raises
    [Starvation.Tap_starved] / [Desim.Sim.Event_budget_exceeded] from the
    embedded calibration run and [Sweep.Sweep_internal_error] if the
    sweep journal layer misbehaves. *)

val run_vit_laws :
  ?scale:float -> ?seed:int -> Format.formatter -> (string * float * Workload.scored list) list
(** VIT interval law shape (normal / uniform / exponential) at matched σ_T:
    only σ_T matters, not the law's shape — supports the paper's reduction
    of VIT design to choosing σ_T.  Raises [Sweep.Sweep_internal_error]
    if the sweep journal layer misbehaves. *)

val run_entropy_bins :
  ?scale:float -> ?seed:int -> Format.formatter -> (float * float) list
(** Entropy-estimator bin-width sensitivity at n = 1000 under CIT:
    (bin width, empirical detection).  The feature works across a decade
    of bin widths — the robustness the paper claims for eq. (25).
    Raises [Sweep.Sweep_internal_error] if the sweep journal layer
    misbehaves; under {!Sweep.set_strict} the trace collection's
    [Starvation.Tap_starved] / [Desim.Sim.Event_budget_exceeded] escape
    too. *)

val run_tap_positions :
  ?scale:float -> ?seed:int -> Format.formatter -> (int * float * Workload.scored list) list
(** Adversary position along a 3-router lab path at fixed utilization:
    detection decays with distance from the sender gateway (σ_net
    accumulates per hop) — the paper's location-matters observation.
    Raises [Sweep.Sweep_internal_error] if the sweep journal layer
    misbehaves. *)

val run_oracle_vs_kde :
  ?scale:float -> ?seed:int -> Format.formatter -> (string * float * float) list
(** Empirical KDE-Bayes detection vs. the exact distributional oracles
    ({!Analytical.Bayes_numeric}) at the measured sigmas, n = 200:
    (feature, empirical, oracle).  Quantifies how close the practical
    adversary gets to the information-theoretic bound.  Raises
    [Sweep.Sweep_internal_error] if the sweep journal layer misbehaves. *)

val run_adaptive_vs_cit :
  ?scale:float -> ?seed:int -> Format.formatter -> (string * float * float) list
(** Timmerman-style adaptive masking vs. CIT vs. VIT: (scheme, worst
    empirical detection at n = 500, dummy overhead).  Adaptive masking
    saves bandwidth but is detectable even by the sample mean.  Raises
    [Sweep.Sweep_internal_error] if the sweep journal layer misbehaves;
    under {!Sweep.set_strict} a class run's [Starvation.Tap_starved] /
    [Desim.Sim.Event_budget_exceeded] escape too. *)

val run_all : scale:float -> seed:int -> Format.formatter -> unit
(** Every ablation table of both groups (this module's and
    {!Ablations_ext}'s), in their print order, each at a fixed seed offset
    from [seed]: the list behind [ta_lab ablations] and the bench's
    [ablations] stage.  Raises what those runners raise:
    [Starvation.Tap_starved], [Desim.Sim.Event_budget_exceeded] and
    [Sweep.Sweep_internal_error]. *)
