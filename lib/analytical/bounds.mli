(** Information-theoretic bounds on the detection rate.

    The paper derives approximate closed forms (Theorems 1–3); classical
    Bhattacharyya bounds give a rigorous sandwich around the exact Bayes
    detection rate, with closed forms for both feature laws used here:
    equal-mean normals (sample mean) and same-shape gammas (sample
    variance).  For equal priors,

      (1 − √(1 − ρ²))/2  ≤  Bayes error  ≤  ρ/2

    where ρ is the Bhattacharyya coefficient ∫ √(f₀ f₁); detection rate
    bounds follow as v ∈ [1 − ρ/2 inverted accordingly]. *)

type bracket = { lower : float; upper : float }
(** [lower <= exact detection rate <= upper]. *)

val bhattacharyya_gamma_same_shape :
  shape:float -> scale0:float -> scale1:float -> float
(** ρ = (2√(θ₀θ₁)/(θ₀+θ₁))^k for Gamma(k, θ₀) vs Gamma(k, θ₁);
    [shape > 0], scales > 0. *)

val detection_bracket_of_rho : float -> bracket
(** Convert a Bhattacharyya coefficient (in [0,1]) into detection-rate
    bounds for equal priors. *)

val sample_variance_bracket :
  sigma2_l:float -> sigma2_h:float -> n:int -> bracket
(** Bounds for the sample-variance feature at sample size [n >= 2], via
    the exact gamma law of S². *)
