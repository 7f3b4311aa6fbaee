type t = {
  sim : Desim.Sim.t;
  rng : Prng.Rng.t;
  failure_rng : Prng.Rng.t;
  timer : Padding.Timer.law;
  jitter : Padding.Jitter.t;
  packet_size : int option;
  queue_limit : int option;
  interval : (unit -> float) option;
  mtbf : float;
  restart_delay : float;
  dest : Netsim.Link.port;
  mutable current : Padding.Gateway.t option;
  mutable pending : Desim.Sim.handle option;  (* next crash or restart *)
  mutable stopped : bool;
  mutable crashes : int;
  mutable went_down : float;
  mutable downtime_acc : float;
  mutable payload_lost : int;
  (* Counters of incarnations already dead: *)
  mutable payload_sent_acc : int;
  mutable dummy_sent_acc : int;
  mutable payload_dropped_acc : int;
  mutable fires_acc : int;
}

let spawn_gateway t =
  Padding.Gateway.create t.sim ~rng:t.rng ~timer:t.timer ~jitter:t.jitter
    ?packet_size:t.packet_size ?queue_limit:t.queue_limit ?interval:t.interval
    ~dest:t.dest ()

let exp_draw t = -.t.mtbf *. log (Prng.Rng.float_pos t.failure_rng)

let m_crashes = Obs.Metrics.counter "faults.crash.crashes"
let m_payload_lost = Obs.Metrics.counter "faults.crash.payload_lost"

let rec arm_crash t =
  if (not t.stopped) && t.mtbf < infinity then
    t.pending <-
      Some (Desim.Sim.after t.sim ~delay:(exp_draw t) (fun () -> crash t))

and crash t =
  match t.current with
  | None -> ()
  | Some gw ->
      t.payload_lost <- t.payload_lost + Padding.Gateway.queue_length gw;
      Obs.Metrics.incr m_crashes;
      Obs.Metrics.add m_payload_lost (Padding.Gateway.queue_length gw);
      if Obs.Trace.enabled () then
        Obs.Trace.event ~name:"gateway.crash" ~t:(Desim.Sim.now t.sim)
          [ ("queued", Obs.Trace.I (Padding.Gateway.queue_length gw)) ];
      t.payload_sent_acc <- t.payload_sent_acc + Padding.Gateway.payload_sent gw;
      t.dummy_sent_acc <- t.dummy_sent_acc + Padding.Gateway.dummy_sent gw;
      t.payload_dropped_acc <-
        t.payload_dropped_acc + Padding.Gateway.payload_dropped gw;
      t.fires_acc <- t.fires_acc + Padding.Gateway.fires gw;
      Padding.Gateway.stop gw;
      t.current <- None;
      t.crashes <- t.crashes + 1;
      t.went_down <- Desim.Sim.now t.sim;
      t.pending <-
        Some (Desim.Sim.after t.sim ~delay:t.restart_delay (fun () -> restart t))

and restart t =
  if not t.stopped then begin
    t.downtime_acc <- t.downtime_acc +. (Desim.Sim.now t.sim -. t.went_down);
    if Obs.Trace.enabled () then
      Obs.Trace.event ~name:"gateway.restart" ~t:(Desim.Sim.now t.sim) [];
    t.current <- Some (spawn_gateway t);
    arm_crash t
  end

let create sim ~rng ~failure_rng ~timer ~jitter ?packet_size ?queue_limit
    ?interval ~mtbf ~restart_delay ~dest () =
  if not (mtbf > 0.0) then invalid_arg "Crash.create: mtbf <= 0";
  if not (restart_delay > 0.0) then
    invalid_arg "Crash.create: restart_delay <= 0";
  let t =
    {
      sim;
      rng;
      failure_rng;
      timer;
      jitter;
      packet_size;
      queue_limit;
      interval;
      mtbf;
      restart_delay;
      dest;
      current = None;
      pending = None;
      stopped = false;
      crashes = 0;
      went_down = 0.0;
      downtime_acc = 0.0;
      payload_lost = 0;
      payload_sent_acc = 0;
      dummy_sent_acc = 0;
      payload_dropped_acc = 0;
      fires_acc = 0;
    }
  in
  t.current <- Some (spawn_gateway t);
  arm_crash t;
  t

let input t pkt =
  if pkt.Netsim.Packet.kind <> Netsim.Packet.Payload then
    invalid_arg "Crash.input: only payload packets enter the sender gateway";
  match t.current with
  | Some gw -> Padding.Gateway.input gw pkt
  | None ->
      t.payload_lost <- t.payload_lost + 1;
      Obs.Metrics.incr m_payload_lost;
      if Obs.Trace.enabled () then
        Obs.Trace.event ~name:"packet.dropped" ~t:(Desim.Sim.now t.sim)
          [ ("cause", Obs.Trace.S "gw_down"); ("kind", Obs.Trace.S "payload") ]

let stop t =
  t.stopped <- true;
  (match t.pending with Some h -> Desim.Sim.cancel h | None -> ());
  t.pending <- None;
  match t.current with Some gw -> Padding.Gateway.stop gw | None -> ()

let crashes t = t.crashes

let downtime t =
  t.downtime_acc
  +. if t.current = None then Desim.Sim.now t.sim -. t.went_down else 0.0

let payload_lost t = t.payload_lost

let with_current t acc f =
  acc + match t.current with Some gw -> f gw | None -> 0

let payload_sent t = with_current t t.payload_sent_acc Padding.Gateway.payload_sent
let dummy_sent t = with_current t t.dummy_sent_acc Padding.Gateway.dummy_sent

let payload_dropped t =
  with_current t t.payload_dropped_acc Padding.Gateway.payload_dropped

(* talint: allow U001 — tests read it to observe the live gateway *)
let fires t = with_current t t.fires_acc Padding.Gateway.fires
(* talint: allow U001 — tests read it to observe the live gateway *)
let queue_length t = with_current t 0 Padding.Gateway.queue_length

let overhead t =
  Padding.Qos.dummy_fraction ~payload_sent:(payload_sent t)
    ~dummy_sent:(dummy_sent t)
