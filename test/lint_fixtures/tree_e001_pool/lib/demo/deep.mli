exception Boom

val boom_if : int -> int
(** Identity below the threshold.  Raises [Boom] past it. *)
