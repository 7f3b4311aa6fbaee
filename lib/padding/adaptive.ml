let min_period = 0.010
let max_period = 0.040
let window = 1.0
let target_queue = 0.5

(* The period policy's state.  [queue] is the gateway's payload queue,
   read through the buffers the gateway runs on; [arrivals] holds the
   payload arrival times of the last [window] seconds (the gateway's own
   arrival ring keeps only the IRQ window). *)
type policy = {
  sim : Desim.Sim.t;
  queue : Netsim.Packet.t Netsim.Ring.t;
  arrivals : Netsim.Fring.t;
  mutable period : float;
}

type t = { gw : Gateway.t; policy : policy }

let estimate_rate p =
  let now = Desim.Sim.now p.sim in
  while
    (not (Netsim.Fring.is_empty p.arrivals))
    && Netsim.Fring.peek p.arrivals < now -. window
  do
    ignore (Netsim.Fring.pop p.arrivals : float)
  done;
  float_of_int (Netsim.Fring.length p.arrivals) /. window

(* The gateway reads the next interval right after each fire, so the
   period adapts to the queue that fire left.  Aim the send rate slightly
   above the estimated payload rate so the queue stays near target_queue;
   clamp to the band.  With no payload seen yet this is max_period. *)
let adapt p () =
  let rate = estimate_rate p in
  let backlog = float_of_int (Netsim.Ring.length p.queue) in
  let pressure = 1.0 +. (0.5 *. (backlog -. target_queue)) in
  let desired_rate = Float.max 1.0 (rate *. Float.max pressure 0.1) in
  p.period <- Float.min max_period (Float.max min_period (1.0 /. desired_rate));
  p.period

let create sim ~rng ~jitter ?packet_size
    ?(buffers = Gateway.Buffers.create ()) ~dest () =
  let policy =
    {
      sim;
      queue = buffers.Gateway.Buffers.queue;
      arrivals = Netsim.Fring.create ();
      period = max_period;
    }
  in
  let gw =
    Gateway.create sim ~rng ~timer:(Timer.Constant max_period) ~jitter
      ?packet_size ~interval:(adapt policy) ~buffers ~dest ()
  in
  { gw; policy }

let input t pkt =
  Gateway.input t.gw pkt;
  Netsim.Fring.push t.policy.arrivals (Desim.Sim.now t.policy.sim)

let stop t = Gateway.stop t.gw

(* talint: allow U001 — tests read it to observe live adaptation *)
let current_period t = t.policy.period

let overhead t = Gateway.overhead t.gw
