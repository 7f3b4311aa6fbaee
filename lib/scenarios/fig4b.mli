(** Figure 4(b): detection rate vs. sample size for CIT padding without
    cross traffic (the adversary's best case), empirical KDE-Bayes
    classification vs. the closed-form theorems, for all three features.

    Expected shape: sample-mean flat near the 0.5 floor and independent of
    n; sample-variance and sample-entropy climbing to ≈1.0 by n = 1000. *)

type t = {
  r_hat : float;
  rows : Workload.scored list;   (** one row per (sample size, feature) *)
}

val default_sample_sizes : int list
(** 10, 20, 50, 100, 200, 400, 700, 1000 — the paper's log-ish sweep. *)

val run :
  ?scale:float ->
  ?seed:int ->
  ?sample_sizes:int list ->
  ?csv_dir:string ->
  Format.formatter ->
  t
(** Workload: 60 windows of the largest sample size per class (scaled,
    floor 8 windows), default gateway jitter.  Raises
    [Sweep.Sweep_internal_error] if the sweep journal layer misbehaves;
    under {!Sweep.set_strict} the trace collection's
    [Starvation.Tap_starved] / [Desim.Sim.Event_budget_exceeded] escape
    too. *)
