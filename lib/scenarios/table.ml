type row_status = Row_ok | Row_failed of string | Row_quarantined of string

type t = {
  title : string;
  columns : string list;
  mutable rows : (string list * row_status) list;  (* reversed *)
}

let create ~title ~columns = { title; columns; rows = [] }

let add_row ?(status = Row_ok) t row =
  if List.length row <> List.length t.columns then
    invalid_arg "Table.add_row: width mismatch";
  t.rows <- (row, status) :: t.rows

let fcell x =
  if Float.is_integer x && Float.abs x < 1e7 then
    Printf.sprintf "%.0f" x
  else if Float.abs x >= 1e6 || (Float.abs x < 1e-3 && x <> 0.0) then
    Printf.sprintf "%.3e" x
  else Printf.sprintf "%.4f" x

let status_cell = function
  | Row_ok -> "ok"
  | Row_failed msg -> if msg = "" then "failed" else "failed: " ^ msg
  | Row_quarantined msg ->
      if msg = "" then "quarantined" else "quarantined: " ^ msg

let has_failures t =
  List.exists (fun (_, status) -> status <> Row_ok) t.rows

(* The status column materializes only when some row is not ok, so clean
   runs render/serialize exactly as they did before tables learned about
   partial results. *)
let effective t =
  if has_failures t then
    ( t.columns @ [ "status" ],
      List.rev_map (fun (row, status) -> row @ [ status_cell status ]) t.rows )
  else (t.columns, List.rev_map fst t.rows)

let quote_cell s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let to_csv t =
  let columns, rows = effective t in
  let line cells = String.concat "," (List.map quote_cell cells) in
  String.concat "\n" (line columns :: List.map line rows) ^ "\n"

let digest t =
  Digest.to_hex (Digest.string (t.title ^ "\n" ^ to_csv t))

(* Registry of printed tables, in print order.  The bench report embeds
   it so the regression differ can compare table *content* (digests)
   across runs, not just wall-clock.  CAS loop: figure stages run
   sequentially today, but nothing in this module should be the thing
   that breaks if one ever prints from a worker domain. *)
let registry : (string * string) list Atomic.t = Atomic.make []

let rec register_digest entry =
  let cur = Atomic.get registry in
  if not (Atomic.compare_and_set registry cur (entry :: cur)) then
    register_digest entry

let printed_digests () = List.rev (Atomic.get registry)

let rec mkdir_p dir =
  if dir = "" || dir = "." || dir = "/" || Sys.file_exists dir then ()
  else begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755
    with Sys_error _ when Sys.file_exists dir -> ()
    (* lost the race to a concurrent mkdir: fine *)
  end

let save_csv t ~path =
  let dir = Filename.dirname path in
  (try mkdir_p dir
   with Sys_error msg ->
     raise
       (Sys_error
          (Printf.sprintf
             "Table.save_csv: cannot create directory %s for %s (%s) — pass \
              a writable --csv directory"
             dir path msg)));
  if Sys.file_exists dir && not (Sys.is_directory dir) then
    raise
      (Sys_error
         (Printf.sprintf
            "Table.save_csv: %s exists but is not a directory — pass a \
             directory path for CSV output"
            dir));
  match open_out path with
  | exception Sys_error msg ->
      raise (Sys_error (Printf.sprintf "Table.save_csv: cannot write %s: %s" path msg))
  | oc ->
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc (to_csv t))

let print ?csv t fmt =
  register_digest (t.title, digest t);
  let columns, rows = effective t in
  let widths =
    List.mapi
      (fun i col ->
        List.fold_left
          (fun acc row -> Stdlib.max acc (String.length (List.nth row i)))
          (String.length col) rows)
      columns
  in
  let pad s w = s ^ String.make (w - String.length s) ' ' in
  let render_row cells =
    String.concat "  " (List.map2 pad cells widths)
  in
  Format.fprintf fmt "@.%s@." t.title;
  let header = render_row columns in
  Format.fprintf fmt "%s@." header;
  Format.fprintf fmt "%s@." (String.make (String.length header) '-');
  List.iter (fun row -> Format.fprintf fmt "%s@." (render_row row)) rows;
  match csv with
  | Some (Some dir, file) -> save_csv t ~path:(Filename.concat dir file)
  | Some (None, _) | None -> ()
