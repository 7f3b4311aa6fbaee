(** Gaussian kernel density estimation.

    The adversary's training phase (paper §3.3, citing Silverman 1986) fits
    the class-conditional PDF of each feature with a Gaussian kernel
    estimator; histograms are "too coarse" for the Bayes rule.  Evaluation
    is exact O(n) per query, with no tree acceleration: training sets run
    to 1 000 feature values per class ([small_samples] in the benchmark)
    and 4 000 (Fig. 4(a)).

    Allocation contract: {!pdf} and {!log_pdf} are plain loops over the
    training array and allocate no per-query array, closure or boxed
    accumulator; the only allocation left is the boxed float result.
    The order of each sum is part of the bit-for-bit contract — the
    training points are summed in index order, and reordering (pairwise
    or vectorised sums) would change result bits and hence the figures'
    table digests. *)

type t

val fit : ?bandwidth:float -> float array -> t
(** [fit xs] fits a KDE.  Default bandwidth is Silverman's rule of thumb,
    h = 0.9 * min(std, IQR/1.34) * n^(-1/5), with a floor that keeps the
    estimator proper when the data are (nearly) constant.  Raises on empty
    input or non-positive explicit [bandwidth]. *)

val bandwidth : t -> float

val pdf : t -> float -> float
(** Density estimate at a point (always > 0). *)

val log_pdf : t -> float -> float
(** Log-density via log-sum-exp; stable far in the tails where {!pdf}
    underflows to 0.  Two passes: the maximum kernel exponent, then the
    sum of shifted exponentials, each exponent recomputed with the same
    operations so it matches the one the first pass compared. *)
