val pair : int -> int * int
(** The input checked and doubled, side by side. *)
