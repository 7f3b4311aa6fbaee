val used : int -> int
(** Called from bin/: reached. *)

val dead : int -> int
(** Called by nothing: the seeded U001. *)
