type event = { mutable cancelled : bool; mutable run : unit -> unit }
type handle = event

type t = {
  mutable clock : float;
  queue : event Event_queue.t;
  (* Local tallies, flushed to Obs by [publish_metrics]: the event loop is
     the hottest path in the repo and must not touch domain-local storage
     per event. *)
  mutable events_processed : int;
  mutable queue_hwm : int;
  (* Watchdog limit on events_processed; [max_int] = unarmed.  Checked at
     chunk granularity (entry/exit of [run_until]), never per event, so
     arming it costs nothing on the hot path. *)
  mutable budget_limit : int;
}

let create ?(start_time = 0.0) () =
  {
    clock = start_time;
    queue = Event_queue.create ();
    events_processed = 0;
    queue_hwm = 0;
    budget_limit = max_int;
  }

let reset ?(start_time = 0.0) t =
  Event_queue.clear t.queue;
  t.clock <- start_time;
  t.events_processed <- 0;
  t.queue_hwm <- 0;
  (* Budgets are per-run: arena reuse resets the simulator on acquire, so
     a leaked budget could otherwise abort an unrelated run. *)
  t.budget_limit <- max_int

let now t = t.clock
(* talint: allow U001 — tests read it to observe the live queue *)
let pending t = Event_queue.size t.queue
let events_processed t = t.events_processed
let queue_hwm t = t.queue_hwm

let m_events = Obs.Metrics.counter "desim.events_processed"
let m_hwm = Obs.Metrics.gauge "desim.queue_hwm"

let publish_metrics t =
  Obs.Metrics.add m_events t.events_processed;
  Obs.Metrics.observe_hwm m_hwm (float_of_int t.queue_hwm);
  t.events_processed <- 0;
  t.queue_hwm <- 0

(* Shared by every scheduler: one queue push plus the depth tally. *)
let enqueue t ~time ev =
  Event_queue.push t.queue ~time ev;
  let depth = Event_queue.size t.queue in
  if depth > t.queue_hwm then t.queue_hwm <- depth

let at t ~time run =
  if Float.is_nan time then invalid_arg "Sim.at: NaN time";
  if time < t.clock then invalid_arg "Sim.at: time in the past";
  let ev = { cancelled = false; run } in
  enqueue t ~time ev;
  ev

let after t ~delay run =
  if Float.is_nan delay || delay < 0.0 then invalid_arg "Sim.after: negative delay";
  at t ~time:(t.clock +. delay) run

let cancel ev = ev.cancelled <- true
let cancelled ev = ev.cancelled

let rearm t h ~delay =
  if Float.is_nan delay || delay < 0.0 then invalid_arg "Sim.rearm: negative delay";
  enqueue t ~time:(t.clock +. delay) h

let every t ?start ~interval f =
  (* One event record serves the whole periodic train: each tick runs the
     body and re-pushes the same record, so a steady-state period costs a
     queue push and nothing else.  The record doubles as the handle; a
     cancelled record is skipped when popped, which both suppresses the
     tick and breaks the re-arm chain. *)
  let rec ev =
    {
      cancelled = false;
      run =
        (fun () ->
          f ();
          let dt = interval () in
          if Float.is_nan dt || dt <= 0.0 then
            invalid_arg "Sim.every: non-positive interval";
          enqueue t ~time:(t.clock +. dt) ev);
    }
  in
  let first =
    match start with
    | Some s -> s
    | None ->
        let dt = interval () in
        if Float.is_nan dt || dt <= 0.0 then
          invalid_arg "Sim.every: non-positive interval";
        t.clock +. dt
  in
  if Float.is_nan first then invalid_arg "Sim.at: NaN time";
  if first < t.clock then invalid_arg "Sim.at: time in the past";
  enqueue t ~time:first ev;
  ev

exception Event_budget_exceeded of { max_events : int }

let set_event_budget t ~max_events =
  if max_events < 1 then invalid_arg "Sim.set_event_budget: max_events < 1";
  t.budget_limit <- max_events

let check_budget t =
  if t.events_processed > t.budget_limit then
    raise (Event_budget_exceeded { max_events = t.budget_limit })

let account_external t ~events ~queue_hwm =
  if events < 0 then invalid_arg "Sim.account_external: negative events";
  if queue_hwm < 0 then invalid_arg "Sim.account_external: negative queue_hwm";
  t.events_processed <- t.events_processed + events;
  if queue_hwm > t.queue_hwm then t.queue_hwm <- queue_hwm

let run_until t ~time =
  if Float.is_nan time then invalid_arg "Sim.run_until: NaN time";
  check_budget t;
  let q = t.queue in
  (* One event at a time on the allocation-free queue primitives: per event
     the loop performs one min_time read, one pop and the callback — no
     options, no tuples. *)
  let continue = ref true in
  while !continue do
    if Event_queue.is_empty q then continue := false
    else begin
      let next = Event_queue.min_time q in
      if next > time then continue := false
      else begin
        let ev = Event_queue.pop_exn q in
        t.clock <- next;
        t.events_processed <- t.events_processed + 1;
        if not ev.cancelled then ev.run ()
      end
    end
  done;
  if time > t.clock then t.clock <- time;
  check_budget t
