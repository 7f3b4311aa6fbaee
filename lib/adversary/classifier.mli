(** Bayes classifier over one scalar feature (paper §3.3).

    Off-line training fits a Gaussian KDE per class (per payload rate) to
    the class-conditional feature PDF; run-time classification picks the
    class maximizing prior × density, eq. (2).  The classifier is m-ary —
    the paper's two-rate experiments and the §6 multi-rate extension use
    the same code. *)

type t

val train :
  ?priors:float array -> classes:(string * float array) array -> unit -> t
(** [train ~classes ()] with [classes.(i) = (name, feature values)].
    [priors] default to equal; must be positive and are normalized.
    Raises on fewer than 2 classes, empty training sets, or a priors/
    classes length mismatch. *)

val num_classes : t -> int

val classify : t -> float -> int
(** Index of the maximum-posterior class (ties go to the lower index). *)

val accuracy : t -> (int * float array) array -> float
(** [accuracy t cases] with [cases.(i) = (true class index, feature
    values)]: prior-weighted probability of correct classification — the
    paper's detection rate, eq. (7) — computed as
    Σ_i prior(i) · (correct_i / total_i).  Raises if any class has no
    test data. *)

val correct_counts : t -> (int * float array) array -> int array * int array
(** [(correct, total)] per true class on the same labeled test data as
    {!accuracy} — the exact integer success counts behind the rate, for
    confidence intervals that must not reconstruct them by rounding. *)

val weighted_accuracy : t -> correct:int array -> total:int array -> float
(** The eq. (7) prior-weighted rate from pre-computed {!correct_counts}
    (so one classification pass yields both the rate and the counts).
    Raises if any class has no test data or on a length mismatch. *)

val threshold_two_class : t -> float option
(** For a 2-class classifier: the decision threshold d solving
    prior₀·f₀(d) = prior₁·f₁(d) between the two class means (paper eq. 3,
    Fig. 2), found by bisection on the posterior difference.  [None] if
    the densities do not cross between the class means (degenerate
    training data).  Raises if the classifier is not binary. *)
