val via_open : int -> int
(** Reached from perfbench/ through its top-level [open Demo]. *)

val from_example : int -> int
(** Reached from examples/. *)

val from_init : int -> int
(** Reached from a lib/ init block. *)

val waived : int -> int
(** Reached by nothing, waived in place. *)
