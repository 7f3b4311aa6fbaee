(** Deterministic, splittable pseudo-random number generator.

    The generator is xoshiro256++ seeded through SplitMix64, which gives
    high-quality 64-bit streams from any integer seed.  All experiments in
    this repository draw exclusively from this module so that every figure
    is reproducible from a seed printed in its header.

    Generators are mutable; use {!split} to derive statistically independent
    child generators for parallel or per-component streams (e.g. one stream
    per traffic source) without sharing state. *)

type t
(** Mutable generator state: four 64-bit words, stepped in place without
    allocation. *)

val create : seed:int -> t
(** [create ~seed] builds a generator from a 63-bit seed.  Equal seeds give
    equal streams. *)

val copy : t -> t
(** [copy t] is an independent clone with identical current state. *)

val split : t -> t
(** [split t] advances [t] and returns a child generator whose stream is
    statistically independent of the parent's subsequent output. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val bits53 : t -> int
(** The 53 high bits of the next raw output, in [0, 2{^53}).  {!float}
    is [float_of_int (bits53 t) *. 0x1.0p-53]; as an int the draw is
    never boxed, so {!Sampler} builds its variates on it. *)

val float : t -> float
(** Uniform float in [0, 1) with 53-bit resolution. *)

val float_pos : t -> float
(** Uniform float in (0, 1): never returns 0, safe for [log]. *)

val float_pos_fill : t -> floatarray -> n:int -> unit
(** [float_pos_fill t buf ~n] stores [n] successive {!float_pos} draws in
    [buf.(0) .. buf.(n-1)], bit-identical to the scalar calls and in the
    same order.  The loop runs inside this module, so no draw is boxed:
    the batched path behind {!Sampler.exponential_fill}.  Raises
    [Invalid_argument] unless [0 <= n <= length buf]. *)

val float_range : t -> lo:float -> hi:float -> float
(** Uniform in [lo, hi).  Raises [Invalid_argument] unless [lo <= hi],
    which also rejects a NaN bound. *)

val int : t -> bound:int -> int
(** Uniform integer in [0, bound). Requires [bound > 0]. Unbiased, by
    rejection on the top 63 bits; allocates nothing. *)

val mix_seed : int -> int -> int
(** [mix_seed root index] derives a per-task seed from a root seed and a
    task index through two SplitMix64 finalizer steps.  Pure and
    order-independent: the seed for task [i] does not depend on when (or
    whether) any other task's seed is derived, which is what makes
    parallel fan-out bit-reproducible.  Result is a non-negative 62-bit
    int suitable for {!create}. *)
