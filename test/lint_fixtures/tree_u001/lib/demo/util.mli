val doubled : int -> int
(** Called only from the unreached [Api.dead]: a finding too. *)
