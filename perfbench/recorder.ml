(* Span recorder for the traced run.

   Every call the traced sweeps make into a layer is wrapped in a span:
   name, start, end, parent span and sweep-point id, plus the Obs counter
   deltas and the minor words the recording domain allocated around the
   call.  Spans stay in memory; [write] dumps them as JSON lines when the
   benchmark ends.

   Parents are tracked per domain.  Work handed to an [Exec.Pool] worker
   starts on an empty stack, so the traced sweeps capture [context ()]
   before a fan-out and re-enter it with [within] inside each task. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root *)
  point : int;  (** sweep point index, -1 outside any point *)
  start : float;
  stop : float;
  words : float;  (** minor words allocated by the recording domain *)
  counts : (string * int) list;  (** non-zero Obs counter deltas *)
  meta : (string * int) list;  (** facts the caller knew about the call *)
}

type context = { fid : int; fpoint : int }

let lock = Mutex.create ()
let recorded : span list ref = ref []
let next_id = Atomic.make 0
let stack : context list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

let context () =
  match Domain.DLS.get stack with
  | c :: _ -> c
  | [] -> { fid = -1; fpoint = -1 }

let within ctx f =
  let saved = Domain.DLS.get stack in
  Domain.DLS.set stack [ ctx ];
  Fun.protect ~finally:(fun () -> Domain.DLS.set stack saved) f

let counter_totals () =
  List.filter_map
    (function
      | name, Obs.Metrics.Snapshot.Counter v -> Some (name, v) | _ -> None)
    (Obs.Metrics.snapshot ())

let deltas before after =
  List.filter_map
    (fun (name, v) ->
      let v0 = Option.value (List.assoc_opt name before) ~default:0 in
      if v <> v0 then Some (name, v - v0) else None)
    after

let span ?point ?(counts = false) ?(meta = []) ?after name f =
  let parent = context () in
  let id = Atomic.fetch_and_add next_id 1 in
  let point = Option.value point ~default:parent.fpoint in
  Domain.DLS.set stack ({ fid = id; fpoint = point } :: Domain.DLS.get stack);
  (* Snapshots are taken outside [start, stop]: their cost lands in the
     parent's self time, never in the layer being measured. *)
  let c0 = if counts then counter_totals () else [] in
  let w0 = Gc.minor_words () in
  let start = Measure.now () in
  let close late =
    let stop = Measure.now () in
    let words = Gc.minor_words () -. w0 in
    let counts = if counts then deltas c0 (counter_totals ()) else [] in
    (match Domain.DLS.get stack with
    | _ :: rest -> Domain.DLS.set stack rest
    | [] -> ());
    let s =
      {
        id;
        name;
        parent = parent.fid;
        point;
        start;
        stop;
        words;
        counts;
        meta = meta @ late;
      }
    in
    Mutex.protect lock (fun () -> recorded := s :: !recorded)
  in
  match f () with
  | v ->
      close (match after with Some g -> g v | None -> []);
      v
  | exception e ->
      close [];
      raise e

(* Spans recorded since the last [take], oldest first. *)
let take () =
  Mutex.protect lock (fun () ->
      let s = List.rev !recorded in
      recorded := [];
      s)

let duration s = s.stop -. s.start
let count s key = Option.value (List.assoc_opt key s.counts) ~default:0
let meta s key = Option.value (List.assoc_opt key s.meta) ~default:0

(* Self time of every span: its duration minus the union of its
   children's intervals (children of one parent overlap when a pool runs
   them in parallel).  Returns the per-span self times and the total
   overlap, i.e. the child time the unions absorbed:
   sum of self times = root durations + overlap. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.add children s.parent s) spans;
  let overlap = ref 0.0 in
  let selfs =
    List.map
      (fun s ->
        let kids = Hashtbl.find_all children s.id in
        let intervals =
          List.sort compare
            (List.map
               (fun k -> (Float.max k.start s.start, Float.min k.stop s.stop))
               kids)
        in
        let union, _ =
          List.fold_left
            (fun (acc, reach) (a, b) ->
              let a = Float.max a reach in
              if b > a then (acc +. (b -. a), b) else (acc, reach))
            (0.0, neg_infinity) intervals
        in
        let kid_total = List.fold_left (fun acc k -> acc +. duration k) 0.0 kids in
        overlap := !overlap +. (kid_total -. union);
        (s, duration s -. union))
      spans
  in
  (selfs, !overlap)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_ints kvs =
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> Printf.sprintf "%s:%d" (json_string k) v) kvs)
  ^ "}"

(* One JSON object per span; times in seconds since process start. *)
let write ~path spans =
  let dir = Filename.dirname path in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"name\":%s,\"parent\":%d,\"point\":%d,\"start\":%.9f,\"end\":%.9f,\"words\":%.0f,\"counts\":%s,\"meta\":%s}\n"
            s.id (json_string s.name) s.parent s.point
            (s.start -. Measure.process_start)
            (s.stop -. Measure.process_start)
            s.words (json_ints s.counts) (json_ints s.meta))
        spans)
