open Demo

(* Root-only files are never linted: this clock read and this print are
   D002 and D003 violations in lib/. *)
let () =
  let t0 = Unix.gettimeofday () in
  print_endline (string_of_int (Api.via_open 1));
  ignore t0
