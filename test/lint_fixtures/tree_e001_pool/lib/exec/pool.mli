val both : (unit -> 'a) -> (unit -> 'b) -> 'a * 'b
(** Run both thunks.  A thunk's exception is re-raised as raised. *)
