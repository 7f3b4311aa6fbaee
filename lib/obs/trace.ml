type field = S of string | I of int | F of float | B of bool

let schema_line = {|{"schema":"ta-trace/1"}|}

let on = Atomic.make false
let mutex = Mutex.create ()
let path = ref None

(* Completed run buffers: (label, jsonl chunk).  Flush sorts these, so
   the on-disk order is a function of the workload, not the scheduler. *)
let pending : (string * string) list ref = ref []

(* Current run of the calling domain: simulations are single-threaded, so
   a domain-local slot is all the scoping we need.  A run keeps each line
   with the simulated time it was emitted at; [line] is the scratch
   buffer every line is formatted in. *)
type run = {
  label : string;
  line : Buffer.t;
  mutable lines : (float * string) list;
}

let current : run option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

(* The within-run order: simulated time, then the line's bytes.  It is a
   function of the run's event multiset alone, so any two emitters of the
   same events (the event loop and the fused kernels) write the same
   bytes. *)
let compare_lines (t1, l1) (t2, l2) =
  match Float.compare t1 t2 with 0 -> String.compare l1 l2 | d -> d

let enable ~path:p =
  Mutex.protect mutex (fun () ->
      path := Some p;
      pending := []);
  Atomic.set on true

(* talint: allow U001 — tests turn tracing off between cases *)
let disable () =
  Atomic.set on false;
  Mutex.protect mutex (fun () ->
      path := None;
      pending := [])

let enabled () = Atomic.get on

let with_run label f =
  if not (Atomic.get on) then f ()
  else begin
    let slot = Domain.DLS.get current in
    let saved = !slot in
    let run = { label; line = Buffer.create 256; lines = [] } in
    slot := Some run;
    Fun.protect
      ~finally:(fun () ->
        slot := saved;
        if Atomic.get on then begin
          let chunk =
            String.concat "" (List.map snd (List.sort compare_lines run.lines))
          in
          Mutex.protect mutex (fun () -> pending := (label, chunk) :: !pending)
        end)
      f
  end

let add_field buf (key, v) =
  Buffer.add_string buf ",\"";
  Buffer.add_string buf (Json.escape key);
  Buffer.add_string buf "\":";
  match v with
  | S s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (Json.escape s);
      Buffer.add_char buf '"'
  | I i -> Buffer.add_string buf (string_of_int i)
  | F f ->
      Buffer.add_string buf
        (if Float.is_finite f then Printf.sprintf "%.12g" f else "null")
  | B b -> Buffer.add_string buf (if b then "true" else "false")

let event ~name ~t fields =
  if Atomic.get on then
    match !(Domain.DLS.get current) with
    | None -> ()
    | Some run ->
        let buf = run.line in
        Buffer.clear buf;
        Buffer.add_string buf "{\"run\":\"";
        Buffer.add_string buf (Json.escape run.label);
        Buffer.add_string buf "\",\"t\":";
        Buffer.add_string buf (Printf.sprintf "%.12g" t);
        Buffer.add_string buf ",\"ev\":\"";
        Buffer.add_string buf (Json.escape name);
        Buffer.add_char buf '"';
        List.iter (add_field buf) fields;
        Buffer.add_string buf "}\n";
        run.lines <- (t, Buffer.contents buf) :: run.lines

let flush () =
  if Atomic.get on then
    Mutex.protect mutex (fun () ->
        match !path with
        | None -> ()
        | Some p ->
            let runs =
              List.sort
                (fun (l1, c1) (l2, c2) ->
                  match String.compare l1 l2 with
                  | 0 -> String.compare c1 c2
                  | d -> d)
                !pending
            in
            pending := [];
            let oc = open_out p in
            Fun.protect
              ~finally:(fun () -> close_out oc)
              (fun () ->
                output_string oc schema_line;
                output_char oc '\n';
                List.iter (fun (_, chunk) -> output_string oc chunk) runs))

let known_events =
  [
    "tap.observe";
    "packet.sent";
    "packet.dropped";
    "packet.dup";
    "packet.reordered";
    "timer.fire";
    "timer.miss";
    "timer.catchup";
    "outage.start";
    "outage.end";
    "gateway.crash";
    "gateway.restart";
  ]

type summary = { events : int; runs : int }

let validate_line ~lineno line =
  match Json.of_string line with
  | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg)
  | Ok json -> (
      match
        (Json.member "run" json, Json.member "t" json, Json.member "ev" json)
      with
      | Some (Json.Str run), Some (Json.Num t), Some (Json.Str ev) ->
          if run = "" then Error (Printf.sprintf "line %d: empty run" lineno)
          else if not (Float.is_finite t) || t < 0.0 then
            Error (Printf.sprintf "line %d: bad time %g" lineno t)
          else if not (List.mem ev known_events) then
            Error (Printf.sprintf "line %d: unknown event %S" lineno ev)
          else Ok run
      | _ ->
          Error
            (Printf.sprintf
               "line %d: missing or mistyped run/t/ev field" lineno))

let validate_file p =
  match open_in p with
  | exception Sys_error msg -> Error msg
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          match In_channel.input_line ic with
          | None -> Error "empty file (missing schema header)"
          | Some header -> (
              match Json.of_string header with
              | Ok json when Json.member "schema" json = Some (Json.Str "ta-trace/1")
                ->
                  let events = ref 0 in
                  let labels = Hashtbl.create 8 in
                  let rec go lineno =
                    match In_channel.input_line ic with
                    | None -> Ok { events = !events; runs = Hashtbl.length labels }
                    | Some "" -> Error (Printf.sprintf "line %d: blank line" lineno)
                    | Some line -> (
                        match validate_line ~lineno line with
                        | Error _ as e -> e
                        | Ok run ->
                            incr events;
                            Hashtbl.replace labels run ();
                            go (lineno + 1))
                  in
                  go 2
              | Ok _ -> Error "line 1: header is not ta-trace/1"
              | Error msg -> Error (Printf.sprintf "line 1: %s" msg)))
