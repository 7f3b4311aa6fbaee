(** Descriptive statistics over float samples.

    Two interfaces: a streaming accumulator ({!Acc}) implementing Welford's
    numerically stable one-pass moments (used inside the simulator, where
    traces can be long), and array-based helpers for the adversary's
    fixed-size samples. *)

module Acc : sig
  type t
  (** Streaming moment accumulator (count, mean, M2..M4, min, max). *)

  val create : unit -> t
  val add : t -> float -> unit
  val merge : t -> t -> t
  (** [merge a b] is a fresh accumulator equivalent to feeding both streams
      (Chan et al. parallel update). *)

  val count : t -> int
  val mean : t -> float
  (** 0 on an empty accumulator. *)

  val variance : t -> float
  (** Unbiased sample variance (n-1 denominator); 0 for n < 2. *)

  val population_variance : t -> float
  (** n-denominator variance; 0 for n < 1. *)

  val std : t -> float
  val skewness : t -> float
  (** Population skewness g1; 0 when undefined. *)

  val kurtosis_excess : t -> float
  (** Population excess kurtosis g2; 0 when undefined. *)

  val min : t -> float
  val max : t -> float
  (** [min]/[max] raise [Invalid_argument] on an empty accumulator. *)
end

val mean : float array -> float
(** Arithmetic mean; raises on empty input. *)

val variance : float array -> float
(** Unbiased (n-1) sample variance; raises for n < 2.  Two-pass, stable. *)

val std : float array -> float

(** The [_in] variants compute the same statistic over the subarray
    [\[pos, pos + len)] without copying it, in the exact iteration order
    of the whole-array versions — [f_in xs ~pos:0 ~len] is bit-identical
    to [f xs].  They back the adversary's allocation-free window scoring.
    All raise [Invalid_argument] on an out-of-bounds view. *)

val mean_in : float array -> pos:int -> len:int -> float
val variance_in : float array -> pos:int -> len:int -> float
val minimum_in : float array -> pos:int -> len:int -> float
val maximum_in : float array -> pos:int -> len:int -> float

val quantile : float array -> float -> float
(** [quantile xs p] for p in [0,1], linear interpolation between order
    statistics (type-7); raises on empty input or p outside [0,1]. *)
