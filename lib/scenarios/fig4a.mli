(** Figure 4(a): PIAT distribution of CIT-padded traffic without cross
    traffic, under the low (10 pps) and high (40 pps) payload rates.

    Reproduces the paper's three observations: both distributions are
    (almost) bell-shaped, their means coincide at τ, and the high-rate
    variance is slightly larger (r > 1) — the leak CIT cannot close. *)

type class_stats = {
  label : string;
  n : int;
  mean : float;
  std : float;
  skewness : float;
  kurtosis_excess : float;
  jarque_bera_p : float;   (** normality test on a subsample *)
  ks_normal_p : float;     (** KS against the fitted normal, subsample *)
}

type t = {
  low : class_stats;
  high : class_stats;
  r_hat : float;
  density_grid : (float * float * float) array;
      (** (PIAT seconds, KDE density low, KDE density high) — the two
          curves of the paper's panel *)
}

val run : ?scale:float -> ?seed:int -> ?csv_dir:string -> Format.formatter -> t
(** Default workload: 30 000 PIATs per class (scaled, floor 2 000).
    Prints the statistics table and a coarse density table; optionally
    writes [fig4a.csv].  Raises [Starvation.Tap_starved] /
    [Desim.Sim.Event_budget_exceeded] as [System.run] does. *)
