(* ta-ckpt/1 checkpoint journal: one JSONL file per sweep, one record per
   completed sweep point.  Each line carries its own CRC-32 as the last
   field, so a SIGKILL mid-append leaves at most one torn tail line which
   [open_] detects, truncates and recovers from.  Appends are mutex-
   guarded and flushed per record: the file always holds a valid prefix. *)

let schema = "ta-ckpt/1"

type status = Point_ok | Point_failed | Point_quarantined

let status_to_string = function
  | Point_ok -> "ok"
  | Point_failed -> "failed"
  | Point_quarantined -> "quarantined"

let status_of_string = function
  | "ok" -> Some Point_ok
  | "failed" -> Some Point_failed
  | "quarantined" -> Some Point_quarantined
  | _ -> None

type entry = {
  index : int;
  seed : int;
  attempts : int;
  status : status;
  payload : string;  (* raw Marshal bytes for ok points, "" otherwise *)
  error : string;  (* diagnostic for failed/quarantined points, "" for ok *)
}

type recovery = { replayed : int; dropped : int; reset : bool }

type t = {
  path : string;
  mutable oc : out_channel option;
  mutex : Mutex.t;
  entries : (int, entry) Hashtbl.t;
  recovery : recovery;
}

let m_appended = Obs.Metrics.counter "exec.journal.appended"
let m_replayed = Obs.Metrics.counter "exec.journal.replayed"
let m_dropped = Obs.Metrics.counter "exec.journal.dropped"
let m_reset = Obs.Metrics.counter "exec.journal.reset"

(* --- line framing: <partial>,"crc":"<8 hex of partial>"} --- *)

let crc_marker = {|,"crc":"|}

let seal partial = partial ^ crc_marker ^ Crc.hex_of_string partial ^ {|"}|}

(* Split a sealed line back into its CRC-covered prefix; [None] when the
   framing or the checksum is wrong (torn tail, bit flip, stray text). *)
let unseal line =
  let n = String.length line in
  let tail = String.length crc_marker + 8 + 2 in
  if n < tail + 1 then None
  else
    let partial = String.sub line 0 (n - tail) in
    let marker = String.sub line (n - tail) (String.length crc_marker) in
    let hex = String.sub line (n - 10) 8 in
    if
      marker = crc_marker
      && String.sub line (n - 2) 2 = {|"}|}
      && Crc.hex_of_string partial = hex
    then Some partial
    else None

(* --- payload hex (Marshal bytes are not JSON-safe) --- *)

let hex_encode s =
  let buf = Buffer.create (2 * String.length s) in
  String.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents buf

let hex_digit c =
  match c with
  | '0' .. '9' -> Some (Char.code c - Char.code '0')
  | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
  | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
  | _ -> None

let hex_decode s =
  let n = String.length s in
  if n mod 2 <> 0 then None
  else
    let out = Bytes.create (n / 2) in
    let ok = ref true in
    for i = 0 to (n / 2) - 1 do
      match (hex_digit s.[2 * i], hex_digit s.[(2 * i) + 1]) with
      | Some hi, Some lo -> Bytes.set out i (Char.chr ((hi lsl 4) lor lo))
      | _ -> ok := false
    done;
    if !ok then Some (Bytes.to_string out) else None

(* --- serialization --- *)

let header_line ~sweep ~digest =
  seal
    (Printf.sprintf {|{"schema":"%s","sweep":"%s","digest":"%s"|} schema
       (Obs.Json.escape sweep) (Obs.Json.escape digest))

let entry_line e =
  (* Seeds are 62-bit (Rng.mix_seed) and JSON numbers are floats: carry
     the seed as a decimal string so it round-trips exactly. *)
  let common =
    Printf.sprintf {|{"point":%d,"seed":"%d","attempts":%d,"status":"%s"|}
      e.index e.seed e.attempts
      (status_to_string e.status)
  in
  let body =
    match e.status with
    | Point_ok ->
        Printf.sprintf {|%s,"payload":"%s"|} common (hex_encode e.payload)
    | Point_failed | Point_quarantined ->
        Printf.sprintf {|%s,"error":"%s"|} common (Obs.Json.escape e.error)
  in
  seal body

let json_str j key =
  match Obs.Json.member key j with Some (Obs.Json.Str s) -> Some s | _ -> None

let json_int j key =
  match Obs.Json.member key j with
  | Some (Obs.Json.Num f) when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

(* Parse one sealed record line; [None] on any framing/CRC/schema
   violation — the caller treats that as the start of the corrupt tail. *)
let entry_of_line line =
  match unseal line with
  | None -> None
  | Some partial -> (
      (* The sealed prefix is the line minus its closing brace: re-close it
         for the JSON parser. *)
      match Obs.Json.of_string (partial ^ "}") with
      | Error _ -> None
      | Ok j -> (
          match
            ( json_int j "point",
              json_str j "seed",
              json_int j "attempts",
              Option.bind (json_str j "status") status_of_string )
          with
          | Some index, Some seed_s, Some attempts, Some status -> (
              match (int_of_string_opt seed_s, status) with
              | None, _ -> None
              | Some seed, Point_ok -> (
                  match Option.bind (json_str j "payload") hex_decode with
                  | Some payload ->
                      Some { index; seed; attempts; status; payload; error = "" }
                  | None -> None)
              | Some seed, (Point_failed | Point_quarantined) -> (
                  match json_str j "error" with
                  | Some error ->
                      Some { index; seed; attempts; status; payload = ""; error }
                  | None -> None))
          | _ -> None))

let header_matches ~sweep ~digest line =
  match unseal line with
  | None -> false
  | Some partial -> (
      match Obs.Json.of_string (partial ^ "}") with
      | Error _ -> false
      | Ok j ->
          json_str j "schema" = Some schema
          && json_str j "sweep" = Some sweep
          && json_str j "digest" = Some digest)

(* --- filesystem plumbing --- *)

let rec mkdir_p dir =
  if dir = "" || dir = "." || dir = "/" || Sys.file_exists dir then ()
  else begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let sanitize sweep =
  String.map (fun c -> if c = '/' || c = '\\' then '_' else c) sweep

let path_of ~dir ~sweep = Filename.concat dir (sanitize sweep ^ ".ckpt")

let read_lines path =
  let content = In_channel.with_open_bin path In_channel.input_all in
  (* A torn final line has no '\n'; keep it so the CRC check rejects it
     explicitly rather than silently ignoring it. *)
  String.split_on_char '\n' content |> List.filter (fun l -> l <> "")

let open_ ~dir ~sweep ~digest =
  Obs.span "exec.journal.open" @@ fun () ->
  mkdir_p dir;
  let path = path_of ~dir ~sweep in
  let entries = Hashtbl.create 64 in
  let fresh_recovery ~reset =
    if reset then Obs.Metrics.incr m_reset;
    { replayed = 0; dropped = 0; reset }
  in
  let recovery, kept_lines =
    if not (Sys.file_exists path) then (fresh_recovery ~reset:false, [])
    else
      match read_lines path with
      | [] -> (fresh_recovery ~reset:false, [])
      | header :: records ->
          if not (header_matches ~sweep ~digest header) then
            (* Different config digest (or schema, or stray file): the
               journaled points answer a different question — start over. *)
            (fresh_recovery ~reset:true, [])
          else begin
            let kept = ref [] and replayed = ref 0 and dropped = ref 0 in
            let rec go = function
              | [] -> ()
              | line :: rest -> (
                  match entry_of_line line with
                  | Some e ->
                      if not (Hashtbl.mem entries e.index) then begin
                        Hashtbl.replace entries e.index e;
                        incr replayed;
                        kept := line :: !kept
                      end;
                      go rest
                  | None ->
                      (* Corrupt line: everything from here on is the
                         untrusted tail.  Truncate rather than guess. *)
                      dropped := List.length (line :: rest))
            in
            go records;
            Obs.Metrics.add m_replayed !replayed;
            Obs.Metrics.add m_dropped !dropped;
            ( { replayed = !replayed; dropped = !dropped; reset = false },
              List.rev !kept )
          end
  in
  (* Rewrite the validated prefix, then leave the channel open for
     appends.  For a clean journal this writes back exactly the bytes that
     were read. *)
  let oc = open_out_gen [ Open_wronly; Open_creat; Open_trunc ] 0o644 path in
  output_string oc (header_line ~sweep ~digest);
  output_char oc '\n';
  List.iter
    (fun line ->
      output_string oc line;
      output_char oc '\n')
    kept_lines;
  flush oc;
  { path; oc = Some oc; mutex = Mutex.create (); entries; recovery }

let recovery t = t.recovery
let path t = t.path
let find t index = Hashtbl.find_opt t.entries index
(* talint: allow U001 — tests read it to observe live replay *)
let count t = Hashtbl.length t.entries

let append t e =
  let line = entry_line e in
  Mutex.protect t.mutex (fun () ->
      match t.oc with
      | None -> invalid_arg "Journal.append: journal is closed"
      | Some oc ->
          output_string oc line;
          output_char oc '\n';
          (* Flush per record: a kill between points costs nothing; a kill
             mid-append costs exactly the torn line. *)
          flush oc;
          Hashtbl.replace t.entries e.index e;
          Obs.Metrics.incr m_appended)

let close t =
  Mutex.protect t.mutex (fun () ->
      match t.oc with
      | None -> ()
      | Some oc ->
          close_out oc;
          t.oc <- None)

(* --- payload codec --- *)

let encode v = Marshal.to_string v []

let decode s =
  (* Marshal is not self-describing: type safety rests on the config
     digest in the journal header, which keys the payload layout to the
     exact sweep that wrote it.  Structural corruption is caught here;
     the CRC on every line makes it unreachable in practice. *)
  match Marshal.from_string s 0 with v -> Some v | exception _ -> None
