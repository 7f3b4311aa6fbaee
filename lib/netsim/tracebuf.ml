(* Deferred ta-trace/1 events for the fused kernels, and the one
   formatter of the records they defer.

   The event loop appends trace events to the per-run buffer in event
   *processing* order, which is not sorted by the displayed timestamp
   (a gateway fire inserts its packet.sent record — stamped with the
   later emit time — at fire-processing time).  A kernel stage therefore
   records, for every would-be trace event, the simulated time of the
   loop event during which the record would have been inserted ([key])
   alongside the displayed payload; the orchestrator merges the stage
   buffers by key at flush time and falls back to the event loop on any
   cross-stage key collision it cannot order. *)

let timer_fire = 0.0
let sent_payload = 1.0
let sent_dummy = 2.0
let observe_payload = 3.0
let observe_dummy = 4.0
let drop_payload = 5.0
let drop_dummy = 6.0
let drop_cross = 7.0

type t = { keys : Fvec.t; codes : Fvec.t; xs : Fvec.t; ys : Fvec.t }

let create () =
  {
    keys = Fvec.create ~capacity:64 ();
    codes = Fvec.create ~capacity:64 ();
    xs = Fvec.create ~capacity:64 ();
    ys = Fvec.create ~capacity:64 ();
  }

let clear t =
  Fvec.clear t.keys;
  Fvec.clear t.codes;
  Fvec.clear t.xs;
  Fvec.clear t.ys

let length t = Fvec.length t.keys

let push t ~key ~code ~x ~y =
  Fvec.push t.keys key;
  Fvec.push t.codes code;
  Fvec.push t.xs x;
  Fvec.push t.ys y

let key t i = Fvec.unsafe_get t.keys i

(* The ta-trace/1 layout of the four records.  Field layout per code:
   timer_fire      x = queue length after the pop, y unused (displayed at key)
   sent_*          x = size_bytes,                 y = emit time (displayed)
   observe_*       x = size_bytes                  (displayed at key)
   drop_*          (displayed at key) *)
let record ~key ~code ~x ~y =
  if code = timer_fire then
    Obs.Trace.event ~name:"timer.fire" ~t:key
      [ ("q", Obs.Trace.I (int_of_float x)) ]
  else if code = sent_payload || code = sent_dummy then
    Obs.Trace.event ~name:"packet.sent" ~t:y
      [
        ( "kind",
          Obs.Trace.S (if code = sent_payload then "payload" else "dummy") );
        ("size", Obs.Trace.I (int_of_float x));
      ]
  else if code = observe_payload || code = observe_dummy then
    Obs.Trace.event ~name:"tap.observe" ~t:key
      [
        ( "kind",
          Obs.Trace.S (if code = observe_payload then "payload" else "dummy") );
        ("size", Obs.Trace.I (int_of_float x));
      ]
  else
    Obs.Trace.event ~name:"packet.dropped" ~t:key
      [
        ("cause", Obs.Trace.S "link_queue");
        ( "kind",
          Obs.Trace.S
            (if code = drop_payload then "payload"
             else if code = drop_dummy then "dummy"
             else "cross") );
      ]

let emit t i =
  record ~key:(Fvec.get t.keys i) ~code:(Fvec.get t.codes i)
    ~x:(Fvec.get t.xs i) ~y:(Fvec.get t.ys i)
