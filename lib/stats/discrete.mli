(** Discrete distributions (pmf/cdf/sampling), primarily for the
    packet-counting analytics: window counts of an unpadded Poisson stream
    are Poisson, so the counting attack's exact Bayes detection rate is a
    sum over pmfs rather than an integral. *)

type t = {
  name : string;
  pmf : int -> float;
  log_pmf : int -> float;
  cdf : int -> float;          (** P(X <= k) *)
  mean : float;
  variance : float;
  sample : Prng.Rng.t -> int;
}

val poisson : mean:float -> t
(** [mean > 0]. *)

val bayes_detection_two : t -> t -> ?p0:float -> ?k_max:int -> unit -> float
(** Exact Bayes detection rate between two discrete laws with priors
    (p0, 1-p0): Σ_k max(p0·pmf₀(k), p1·pmf₁(k)), truncated at [k_max]
    (default: far enough beyond both means + 12 std-devs that the
    remainder is negligible). *)
