(** Entropy estimators.

    The adversary's "sample entropy" feature is the histogram plug-in
    estimator of the paper's eq. (25): H ≈ - Σ (k_i/n) ln (k_i/n), computed
    with a bin width held constant across the experiment so the discarded
    [ln Δh] offset cancels between classes.  Natural logarithms throughout. *)

val of_sample_in :
  bin_width:float -> reference:float -> float array -> pos:int -> len:int ->
  float
(** {!of_sample} over the view [\[pos, pos + len)] of the array, without
    copying it — bit-identical to [of_sample] on the equivalent subarray.
    Its time is linear in [len] for a grid of up to 8 bins per sample
    and O(len log len) beyond; it allocates nothing that grows with the
    grid.  Raises [Invalid_argument] on an empty or out-of-bounds view. *)

val of_sample : bin_width:float -> reference:float -> float array -> float
(** [of_sample ~bin_width ~reference xs] is the adversary's feature
    extractor: bins [xs] on a grid anchored at [reference] (grid edges at
    reference + k*bin_width, from the edge at or below the smallest sample
    to the bin holding the largest; where that first edge rounds above the
    smallest sample, the sample counts in the first bin) and returns the
    eq. (25) plug-in entropy of the bin counts.  Anchoring the grid makes
    the feature depend only on the sample's dispersion, not on where the
    grid happens to fall.  Raises [Invalid_argument] on empty input, a bin
    width that is not positive and finite, a reference or a sample that
    is not finite, or a grid with more bins than an [int] holds. *)

val normal_differential : sigma:float -> float
(** Closed-form differential entropy of N(mu, sigma^2): ½ ln(2πe σ²).
    Requires [sigma > 0]. *)
