let via_open x = x + 1
let from_example x = x + 2
let from_init x = x + 3

(* talint: allow U001 — fixture: an export kept on purpose *)
let waived x = x + 4
