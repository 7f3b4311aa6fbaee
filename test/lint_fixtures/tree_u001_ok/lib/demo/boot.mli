(* Module initialisation only. *)
