(** Generic FIFO ring buffer.

    Replaces ['a Queue.t] on per-packet paths: a [Queue] allocates a
    cons cell per push, the ring none in steady state.  Storage is
    seeded lazily from the first pushed value, so no dummy element (and
    no [Obj.magic]) is ever needed.  Popped slots keep their old value
    until overwritten; the retention is bounded by the ring's capacity.
    {!clear} keeps the capacity for arena reuse. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit
(** Append at the back; grows the backing store when full. *)

val pop : 'a t -> 'a
(** Remove and return the front element.  Raises [Invalid_argument] when
    empty. *)

val clear : 'a t -> unit
(** Empty the ring, keeping its capacity. *)
