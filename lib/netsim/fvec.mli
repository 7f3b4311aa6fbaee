(** Growable float vector — timestamp traces can run to millions of entries,
    so boxing-free storage matters. *)

type t = { mutable data : float array; mutable len : int }
(** The elements are [data.(0) .. data.(len - 1)]; the rest of [data] is
    spare capacity.  The representation is public for the fused kernels
    ([Netsim.Linkstage], [Padding.Kernel]), which read and append in
    place: a float passed to or returned from another module's function
    is boxed when modules are compiled [-opaque], as dune's dev profile
    does.  Everything else goes through the functions below. *)

val create : ?capacity:int -> unit -> t
val length : t -> int
val push : t -> float -> unit

val grow : t -> unit
(** Double the capacity, keeping the elements: the slow path of an
    in-place append. *)

val append : t -> t -> unit
(** [append t src] pushes every element of [src] onto [t], in order, in
    one copy. *)

val get : t -> int -> float
(** Raises on out-of-range index. *)

val unsafe_get : t -> int -> float
(** Unchecked read for loops that already bound the index by {!length}. *)

val to_array : t -> float array
val clear : t -> unit
