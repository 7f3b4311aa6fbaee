(** m-ary analytics for the §6 multi-rate extension.

    With m payload rates the PIAT variances order as
    σ²₁ < σ²₂ < … < σ²_m, and the sample-variance feature's class laws are
    same-shape gammas — a monotone-likelihood-ratio family, so the m-ary
    Bayes regions are intervals split at the adjacent-pair likelihood
    crossings.  That makes the exact m-ary detection rate a finite sum of
    regularized incomplete gammas. *)

val thresholds_variance : sigma2s:float array -> n:int -> float array
(** The m−1 adjacent decision thresholds for the sample-variance feature
    at sample size [n >= 2]; input must be strictly increasing and
    positive.  Thresholds are strictly increasing and interleave the
    class variances. *)

val mary_variance_exact : sigma2s:float array -> n:int -> float
(** Exact equal-prior m-ary Bayes detection rate for the sample-variance
    feature.  Reduces to {!Bayes_numeric.sample_variance_exact} at m = 2.
    Requires m >= 2, strictly increasing positive variances. *)

val confusion_variance_exact :
  sigma2s:float array -> n:int -> float array array
(** [c.(truth).(decision)]: exact probability that a sample from class
    [truth] lands in class [decision]'s interval; rows sum to 1. *)
