(** Priority queue of timestamped events.

    Binary min-heap ordered by (time, sequence number): ties in time are
    broken by insertion order, which makes simulations deterministic — a
    hard requirement for reproducible figures.

    The heap is stored structure-of-arrays (unboxed float times, int
    seq/slot arrays, payload slots recycled through a free-list), so the
    steady-state push/pop cycle performs no heap allocation beyond the
    caller's own boxing.  Popped payload slots retain their old value
    until reused; the retention is bounded by the queue's high-water
    mark. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val size : 'a t -> int

val capacity : 'a t -> int
(** Allocated slots (>= {!size}); grows geometrically, never shrinks. *)

val push : 'a t -> time:float -> 'a -> unit
(** Raises [Invalid_argument] on NaN time. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the earliest event, [None] when empty.  Allocates
    the option and pair; the hot simulation loop uses {!min_time} +
    {!pop_exn} instead. *)

val min_time : 'a t -> float
(** Earliest timestamp.  Raises [Invalid_argument] when empty. *)

val next_seq : 'a t -> int
(** The sequence number the next {!push} takes: pushes since creation or
    the last {!clear}. *)

val popped_seq : 'a t -> int
(** Sequence number of the event the last {!pop_exn} or {!pop} removed
    ([-1] before the first). *)

val pop_exn : 'a t -> 'a
(** Remove the earliest event and return its payload without allocating.
    Read {!min_time} first if the timestamp is needed.  Raises
    [Invalid_argument] when empty. *)

val clear : 'a t -> unit
(** Empty the queue and reset the tie-break counter, keeping the
    allocated capacity — the arena-reuse hook for sweep harnesses.  A
    cleared queue behaves exactly like a fresh one. *)
