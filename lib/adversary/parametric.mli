(** Parametric (Gaussian maximum-likelihood) Bayes classifier.

    The paper's adversary estimates class-conditional feature PDFs with a
    Gaussian *kernel* estimator because histograms are too coarse (§3.3).
    A cheaper adversary simply fits one Gaussian per class — exactly right
    when the feature is the sample mean (normal) and asymptotically right
    for variance and entropy.  This backend quantifies how much the KDE's
    flexibility actually buys (see the classifier-backend ablation). *)

type t

val train :
  ?priors:float array -> classes:(string * float array) array -> unit -> t
(** Same contract as {!Classifier.train}; each class is summarized by its
    sample mean and standard deviation (floored to stay proper when the
    training feature collapses to a point). *)

val num_classes : t -> int

val classify : t -> float -> int
(** Maximum posterior under the fitted normals (ties to lower index). *)

val accuracy : t -> (int * float array) array -> float
(** Prior-weighted detection rate on labeled test data (paper eq. 7). *)

val correct_counts : t -> (int * float array) array -> int array * int array
(** [(correct, total)] per true class — see {!Classifier.correct_counts}. *)

val weighted_accuracy : t -> correct:int array -> total:int array -> float
(** Eq. (7) rate from pre-computed counts — see
    {!Classifier.weighted_accuracy}. *)
