(* Deferred ta-trace/1 events for the fused kernels, and the one
   formatter of the records they defer.  Entries carry their displayed
   time; [Obs.Trace] orders each run's lines, so buffers can be replayed
   in any order. *)

let timer_fire = 0.0
let sent_payload = 1.0
let sent_dummy = 2.0
let observe_payload = 3.0
let observe_dummy = 4.0
let drop_payload = 5.0
let drop_dummy = 6.0
let drop_cross = 7.0

type t = { times : Fvec.t; codes : Fvec.t; xs : Fvec.t }

let create () =
  {
    times = Fvec.create ~capacity:64 ();
    codes = Fvec.create ~capacity:64 ();
    xs = Fvec.create ~capacity:64 ();
  }

let clear t =
  Fvec.clear t.times;
  Fvec.clear t.codes;
  Fvec.clear t.xs

let push t ~time ~code ~x =
  Fvec.push t.times time;
  Fvec.push t.codes code;
  Fvec.push t.xs x

(* The ta-trace/1 layout of the four records.  Field layout per code:
   timer_fire      x = queue length after the pop
   sent_*          x = size_bytes
   observe_*       x = size_bytes
   drop_*          x unused *)
let record ~time ~code ~x =
  if code = timer_fire then
    Obs.Trace.event ~name:"timer.fire" ~t:time
      [ ("q", Obs.Trace.I (int_of_float x)) ]
  else if code = sent_payload || code = sent_dummy then
    Obs.Trace.event ~name:"packet.sent" ~t:time
      [
        ( "kind",
          Obs.Trace.S (if code = sent_payload then "payload" else "dummy") );
        ("size", Obs.Trace.I (int_of_float x));
      ]
  else if code = observe_payload || code = observe_dummy then
    Obs.Trace.event ~name:"tap.observe" ~t:time
      [
        ( "kind",
          Obs.Trace.S (if code = observe_payload then "payload" else "dummy") );
        ("size", Obs.Trace.I (int_of_float x));
      ]
  else
    Obs.Trace.event ~name:"packet.dropped" ~t:time
      [
        ("cause", Obs.Trace.S "link_queue");
        ( "kind",
          Obs.Trace.S
            (if code = drop_payload then "payload"
             else if code = drop_dummy then "dummy"
             else "cross") );
      ]

let replay t =
  for i = 0 to Fvec.length t.times - 1 do
    record ~time:(Fvec.get t.times i) ~code:(Fvec.get t.codes i)
      ~x:(Fvec.get t.xs i)
  done
