type meta = { label : string; created_unix : float }

exception Parse_error of { path : string; line : int; msg : string }

let save ~path ~meta timestamps =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc "# linkpad-trace v1\n";
      Printf.fprintf oc "# label: %s\n" meta.label;
      Printf.fprintf oc "# created_unix: %.3f\n" meta.created_unix;
      Printf.fprintf oc "# count: %d\n" (Array.length timestamps);
      Array.iter (fun t -> Printf.fprintf oc "%.17g\n" t) timestamps)

let strip s = String.trim s

let parse_header_field line prefix =
  let p = "# " ^ prefix ^ ":" in
  if String.length line >= String.length p && String.sub line 0 (String.length p) = p
  then Some (strip (String.sub line (String.length p) (String.length line - String.length p)))
  else None

let load ~path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let label = ref "" in
      let created = ref 0.0 in
      let values = ref [] in
      let lineno = ref 0 in
      let fail msg = raise (Parse_error { path; line = !lineno; msg }) in
      (try
         while true do
           incr lineno;
           let line = strip (input_line ic) in
           if line = "" then ()
           else if String.length line > 0 && line.[0] = '#' then begin
             (match parse_header_field line "label" with
             | Some v -> label := v
             | None -> ());
             match parse_header_field line "created_unix" with
             | Some v -> (
                 match float_of_string_opt v with
                 | Some f when Float.is_finite f -> created := f
                 | Some _ -> fail "bad header (created_unix is not finite)"
                 | None -> fail "bad header (created_unix is not a float)")
             | None -> ()
           end
           else
             (* float_of_string_opt accepts nan and inf; PIATs need finite,
                non-decreasing timestamps (equal ones are legal). *)
             match (float_of_string_opt line, !values) with
             | Some v, _ when not (Float.is_finite v) ->
                 fail "bad value (timestamp is not finite)"
             | Some v, prev :: _ when v < prev ->
                 fail "bad value (timestamp below its predecessor)"
             | Some v, _ -> values := v :: !values
             | None, _ -> fail "bad value (expected a float timestamp)"
         done
       with End_of_file -> ());
      ( { label = !label; created_unix = !created },
        Array.of_list (List.rev !values) ))

(* A loop into a float array, not [Array.init]: its closure would box
   every difference. *)
let piats ?(limit = max_int) timestamps =
  let n = Int.min limit (Array.length timestamps - 1) in
  if n <= 0 then [||]
  else begin
    let piats = Array.create_float n in
    for i = 0 to n - 1 do
      Array.unsafe_set piats i
        (Array.unsafe_get timestamps (i + 1) -. Array.unsafe_get timestamps i)
    done;
    piats
  end
