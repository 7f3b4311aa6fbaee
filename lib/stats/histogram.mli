(** Fixed-bin-width histograms.

    The paper's robust entropy estimator (its eq. 24/25, after Moddemeijer
    1989) is histogram-based with a bin width held constant across the whole
    experiment, so the histogram is a first-class object here rather than a
    display artifact. *)

type t

val create : lo:float -> bin_width:float -> bins:int -> t
(** [create ~lo ~bin_width ~bins] covers [lo, lo + bins * bin_width).
    Requires [bin_width > 0] and [bins > 0].  Observations falling outside
    the range are clamped into the first/last bin (they are the "outliers"
    whose probability weighting makes the estimator robust). *)

val add : t -> float -> unit
val count : t -> int
(** Total observations. *)

val bins : t -> int
val bin_width : t -> float
val lo : t -> float

val bin_count : t -> int -> int
(** Observations in bin [i]; raises on out-of-range index. *)

val probabilities : t -> float array
(** Per-bin probability mass k_i / n (sums to 1 when count > 0). *)
