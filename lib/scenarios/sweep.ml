(* The checkpointed, supervised sweep runner every figure routes through.

   A sweep is a list of independent points, each a pure function of its
   index and the root seed.  [mapi] fans the missing points out on
   [Exec.Pool] under [Exec.Supervise] containment, journals every
   completed point to the [ta-ckpt/1] checkpoint (when --checkpoint is
   set), and returns one tri-state cell per point.  Because failures are
   deterministic and terminal statuses replay as-is, a killed-and-resumed
   sweep produces byte-identical tables to an uninterrupted one, at any
   --jobs value. *)

type status = Exec.Journal.status =
  | Point_ok
  | Point_failed
  | Point_quarantined

type 'a cell = {
  index : int;
  status : status;
  attempts : int;
  resumed : bool;
  value : 'a option;
  error : string;
}

type failure = {
  sweep : string;
  index : int;
  f_status : status;
  attempts : int;
  error : string;
}

(* --- process-wide knobs, set once by the CLI before any sweep runs ---
   Atomics, not refs: sanctioned shared state under talint R001. *)

let checkpoint_cfg : string option Atomic.t = Atomic.make None
let retries_cfg = Atomic.make 2
let strict_cfg = Atomic.make false
let budget_cfg : int option Atomic.t = Atomic.make None

type injection = { inj_sweep : string; inj_index : int; first_ok : int option }
(* [first_ok = Some k]: attempts 0..k-1 fail, attempt k succeeds (retry
   path); [None]: every attempt fails (quarantine path). *)

let injections_cfg : injection list Atomic.t = Atomic.make []
let failures_reg : failure list Atomic.t = Atomic.make []

let set_checkpoint_dir dir = Atomic.set checkpoint_cfg dir
let checkpoint_dir () = Atomic.get checkpoint_cfg

let set_retries n =
  if n < 0 then invalid_arg "Sweep.set_retries: retries < 0";
  Atomic.set retries_cfg n

let retries () = Atomic.get retries_cfg
let set_strict b = Atomic.set strict_cfg b
let strict () = Atomic.get strict_cfg

let set_event_budget b =
  (match b with
  | Some n when n < 1 -> invalid_arg "Sweep.set_event_budget: budget < 1"
  | _ -> ());
  Atomic.set budget_cfg b

let event_budget () = Atomic.get budget_cfg

let parse_injection spec =
  let parse_one tok =
    let fail () =
      Error
        (Printf.sprintf
           "bad injection %S (expected SWEEP:INDEX or SWEEP:INDEX@ATTEMPTS)"
           tok)
    in
    match String.split_on_char ':' tok with
    | [ sweep; rest ] when sweep <> "" -> (
        match String.split_on_char '@' rest with
        | [ idx ] -> (
            match int_of_string_opt idx with
            | Some i when i >= 0 ->
                Ok { inj_sweep = sweep; inj_index = i; first_ok = None }
            | _ -> fail ())
        | [ idx; k ] -> (
            match (int_of_string_opt idx, int_of_string_opt k) with
            | Some i, Some k when i >= 0 && k >= 1 ->
                Ok { inj_sweep = sweep; inj_index = i; first_ok = Some k }
            | _ -> fail ())
        | _ -> fail ())
    | _ -> fail ()
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | tok :: rest -> (
        match parse_one tok with
        | Ok inj -> go (inj :: acc) rest
        | Error _ as e -> e)
  in
  go [] (String.split_on_char ',' spec |> List.filter (fun s -> s <> ""))

let set_injections injs = Atomic.set injections_cfg injs
let clear_injections () = Atomic.set injections_cfg []

let should_inject ~sweep ~index ~attempt =
  List.exists
    (fun { inj_sweep; inj_index; first_ok } ->
      inj_sweep = sweep && inj_index = index
      && match first_ok with None -> true | Some k -> attempt < k)
    (Atomic.get injections_cfg)

(* --- failure registry (drives exit 4 + the ta-fail/1 manifest) --- *)

let rec register f =
  let old = Atomic.get failures_reg in
  if not (Atomic.compare_and_set failures_reg old (f :: old)) then register f

let failures () =
  List.sort
    (fun a b ->
      match compare a.sweep b.sweep with 0 -> compare a.index b.index | c -> c)
    (Atomic.get failures_reg)

let partial () = Atomic.get failures_reg <> []
let clear_failures () = Atomic.set failures_reg []

let manifest_schema = "ta-fail/1"

let manifest_json () =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "{\n  \"schema\": \"%s\",\n  \"failures\": [" manifest_schema);
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "\n    {\"sweep\": \"%s\", \"point\": %d, \"status\": \"%s\", \
            \"attempts\": %d, \"error\": \"%s\"}"
           (Obs.Json.escape f.sweep) f.index
           (Exec.Journal.status_to_string f.f_status)
           f.attempts (Obs.Json.escape f.error)))
    (failures ());
  Buffer.add_string buf "\n  ]\n}\n";
  Buffer.contents buf

let rec mkdir_p dir =
  if dir = "" || dir = "." || dir = "/" || Sys.file_exists dir then ()
  else begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let write_manifest ~path =
  mkdir_p (Filename.dirname path);
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (manifest_json ()))

let pp_failures fmt =
  List.iter
    (fun f ->
      Format.fprintf fmt "  %s point %d: %s after %d attempt%s — %s@."
        f.sweep f.index
        (Exec.Journal.status_to_string f.f_status)
        f.attempts
        (if f.attempts = 1 then "" else "s")
        f.error)
    (failures ())

(* --- supervision policy --- *)

exception Sweep_internal_error of string
(* Declared replacement for the bare [assert false] aborts that used to
   live in sweep drivers: supervision classifies it (retryable — it marks
   a broken invariant, not a diagnosed simulation outcome). *)

let classify = function
  | Starvation.Tap_starved _ -> `Fail_fast
  | Desim.Sim.Event_budget_exceeded _ -> `Fail_fast
  | _ -> `Retry

let describe = function
  | Starvation.Tap_starved { scenario; target; observed; sim_time; _ } ->
      (* Deliberately omits the metrics snapshot: the description is
         journaled and must be byte-stable across resumes and --jobs. *)
      Printf.sprintf "tap starved in %s (%d of %d after %.3f sim-s)" scenario
        observed target sim_time
  | Desim.Sim.Event_budget_exceeded { max_events } ->
      Printf.sprintf "event budget exceeded (> %d events)" max_events
  | Sweep_internal_error msg -> "internal error: " ^ msg
  | e -> Printexc.to_string e

let attempt_seed = Exec.Supervise.attempt_seed

let digest_of_string s = Digest.to_hex (Digest.string s)

let m_resumed = Obs.Metrics.counter "exec.task.resumed"

(* --- the runner --- *)

let cell_of_entry (e : Exec.Journal.entry) =
  match e.status with
  | Point_ok -> (
      match Exec.Journal.decode e.payload with
      | Some v ->
          Some
            {
              index = e.index;
              status = Point_ok;
              attempts = e.attempts;
              resumed = true;
              value = Some v;
              error = "";
            }
      | None -> None (* undecodable payload: recompute the point *))
  | (Point_failed | Point_quarantined) as status ->
      Some
        {
          index = e.index;
          status;
          attempts = e.attempts;
          resumed = true;
          value = None;
          error = e.error;
        }

let entry_of_cell ~seed (c : _ cell) : Exec.Journal.entry =
  {
    index = c.index;
    seed;
    attempts = c.attempts;
    status = c.status;
    payload =
      (match (c.status, c.value) with
      | Point_ok, Some v -> Exec.Journal.encode v
      | _ -> "");
    error = c.error;
  }

let mapi ~sweep ~digest ~seed ?prepare ~task xs =
  let xs = Array.of_list xs in
  let n = Array.length xs in
  let retries = retries () in
  let strict = strict () in
  let budget = event_budget () in
  let journal =
    match checkpoint_dir () with
    | None -> None
    | Some dir ->
        (* Retries and the event budget shape which points fail and how
           many attempts they record, so they are part of the journal
           key: resuming under different supervision starts fresh. *)
        let digest =
          digest_of_string
            (Printf.sprintf "v1|%s|seed=%d|retries=%d|budget=%s" digest seed
               retries
               (match budget with None -> "none" | Some b -> string_of_int b))
        in
        Some (Exec.Journal.open_ ~dir ~sweep ~digest)
  in
  let cells = Array.make n None in
  (match journal with
  | Some j ->
      for i = 0 to n - 1 do
        match Exec.Journal.find j i with
        | Some e -> (
            match cell_of_entry e with
            | Some c ->
                cells.(i) <- Some c;
                Obs.Metrics.incr m_resumed
            | None -> ())
        | None -> ()
      done
  | None -> ());
  let missing =
    List.filter (fun i -> cells.(i) = None) (List.init n Fun.id)
  in
  let mark_failed_cell i status attempts error =
    let c =
      { index = i; status; attempts; resumed = false; value = None; error }
    in
    cells.(i) <- Some c;
    Option.iter (fun j -> Exec.Journal.append j (entry_of_cell ~seed c)) journal
  in
  (* Close the journal even when strict mode lets an exception escape:
     everything appended before the raise is already flushed, so the next
     --checkpoint invocation resumes from it. *)
  Fun.protect
    ~finally:(fun () -> Option.iter Exec.Journal.close journal)
  @@ fun () ->
  let prepared =
    (* Shared setup (e.g. fig4b's one-off trace collection) runs only when
       some point actually needs computing — a fully journaled sweep
       resumes without simulating anything. *)
    match prepare with
    | None -> true
    | Some _ when missing = [] -> true
    | Some f ->
        if strict then begin
          f ();
          true
        end
        else begin
          match
            Exec.Supervise.run ~retries ~classify ~describe
              ~task:(fun ~attempt:_ -> f ())
              ()
          with
          | Exec.Supervise.Completed _ -> true
          | Exec.Supervise.Failed { attempts; error } ->
              List.iter
                (fun i ->
                  mark_failed_cell i Point_failed attempts
                    ("prepare: " ^ error))
                missing;
              false
          | Exec.Supervise.Quarantined { attempts; error } ->
              List.iter
                (fun i ->
                  mark_failed_cell i Point_quarantined attempts
                    ("prepare: " ^ error))
                missing;
              false
        end
  in
  if prepared && missing <> [] then begin
    let compute i =
      let x = xs.(i) in
      if strict then begin
        (* Strict mode: no containment — a failing point escapes with its
           original exception (preserving the exit-3 starvation path).
           Points journaled before the raise still count for resume. *)
        let v =
          Exec.Supervise.with_event_budget budget (fun () ->
              task ~attempt:0 i x)
        in
        {
          index = i;
          status = Point_ok;
          attempts = 1;
          resumed = false;
          value = Some v;
          error = "";
        }
      end
      else
        match
          Exec.Supervise.run ~retries ~classify ~describe
            ~task:(fun ~attempt ->
              if should_inject ~sweep ~index:i ~attempt then
                raise
                  (Exec.Supervise.Injected_failure
                     { sweep; index = i; attempt });
              Exec.Supervise.with_event_budget budget (fun () ->
                  task ~attempt i x))
            ()
        with
        | Exec.Supervise.Completed { value; attempts } ->
            {
              index = i;
              status = Point_ok;
              attempts;
              resumed = false;
              value = Some value;
              error = "";
            }
        | Exec.Supervise.Failed { attempts; error } ->
            {
              index = i;
              status = Point_failed;
              attempts;
              resumed = false;
              value = None;
              error;
            }
        | Exec.Supervise.Quarantined { attempts; error } ->
            {
              index = i;
              status = Point_quarantined;
              attempts;
              resumed = false;
              value = None;
              error;
            }
    in
    let computed =
      Exec.Pool.parallel_map
        (fun i ->
          let c = compute i in
          (* Journal from the worker, as soon as the point completes: a
             kill one point later still finds this one on resume. *)
          Option.iter
            (fun j -> Exec.Journal.append j (entry_of_cell ~seed c))
            journal;
          c)
        missing
    in
    List.iter (fun (c : _ cell) -> cells.(c.index) <- Some c) computed
  end;
  let out =
    Array.to_list cells
    |> List.map (function
         | Some c -> c
         | None -> raise (Sweep_internal_error "Sweep.mapi: unfilled cell"))
  in
  (* Register failures in point order (post-barrier, single domain) so the
     manifest and exit code are deterministic. *)
  List.iter
    (fun (c : _ cell) ->
      if c.status <> Point_ok then
        register
          {
            sweep;
            index = c.index;
            f_status = c.status;
            attempts = c.attempts;
            error = c.error;
          })
    out;
  out

let ok_values cells =
  List.filter_map (fun (c : _ cell) -> c.value) cells

(* --- rendering: one row group per point --- *)

let row_status (c : _ cell) =
  match c.status with
  | Point_ok -> Table.Row_ok
  | Point_failed -> Table.Row_failed c.error
  | Point_quarantined -> Table.Row_quarantined c.error

let render ?csv ?(aggregate = []) ~title ~columns ~key ~rows xs cells fmt =
  let table = Table.create ~title ~columns in
  List.iter (Table.add_row table) aggregate;
  let dashes = List.init (List.length columns - 1) (fun _ -> "-") in
  List.iter2
    (fun x (c : _ cell) ->
      match c.value with
      | Some v -> List.iter (Table.add_row table) (rows v)
      | None -> Table.add_row ~status:(row_status c) table (key x :: dashes))
    xs cells;
  Table.print ?csv table fmt
