(* Per-instance reusable state, exposed so sweep harnesses can hand the
   same (already grown) buffers to gateway after gateway. *)
module Buffers = struct
  type t = {
    queue : Netsim.Packet.t Netsim.Ring.t;
    arrivals : Netsim.Fring.t;
    pending : Netsim.Packet.t Netsim.Ring.t;
  }

  let create () =
    {
      queue = Netsim.Ring.create ();
      arrivals = Netsim.Fring.create ();
      pending = Netsim.Ring.create ();
    }

  let clear b =
    Netsim.Ring.clear b.queue;
    Netsim.Fring.clear b.arrivals;
    Netsim.Ring.clear b.pending
end

type t = {
  sim : Desim.Sim.t;
  rng : Prng.Rng.t;
  jitter : Jitter.t;
  packet_size : int;
  queue_limit : int option;
  dest : Netsim.Link.port;
  queue : Netsim.Packet.t Netsim.Ring.t;
  recent_arrivals : Netsim.Fring.t;
  (* Emitted packets waiting out their interrupt latency.  Emission times
     are strictly monotone (enforced below), so one FIFO ring plus one
     reusable event record replaces a fresh closure+event per packet. *)
  pending : Netsim.Packet.t Netsim.Ring.t;
  mutable emit_ev : Desim.Sim.handle option;
  (* Dummies are indistinguishable on the wire and nothing downstream of
     the sender may branch on their identity, so one cached packet serves
     every dummy fire. *)
  mutable dummy : Netsim.Packet.t option;
  emit_clock : floatarray; (* the last emission instant: [Kernel.emit_time] *)
  mutable payload_sent : int;
  mutable dummy_sent : int;
  mutable payload_dropped : int;
  mutable timer_handle : Desim.Sim.handle option;
}

let m_fires = Obs.Metrics.counter "padding.gateway.fires"
let m_payload_sent = Obs.Metrics.counter "padding.gateway.payload_sent"
let m_dummy_sent = Obs.Metrics.counter "padding.gateway.dummy_sent"
let m_payload_dropped = Obs.Metrics.counter "padding.gateway.payload_dropped"
let h_occupancy = Obs.Metrics.histogram "padding.gateway.queue_occupancy"

let dummy_packet t now =
  match t.dummy with
  | Some p -> p
  | None ->
      let p =
        Netsim.Packet.make ~kind:Netsim.Packet.Dummy ~size_bytes:t.packet_size
          ~created:now
      in
      t.dummy <- Some p;
      p

let emit_run t () = t.dest (Netsim.Ring.pop t.pending)

let on_fire t () =
  let now = Desim.Sim.now t.sim in
  Obs.Metrics.incr m_fires;
  Obs.Metrics.observe h_occupancy (float_of_int (Netsim.Ring.length t.queue));
  (* Count payload NIC interrupts landing in the blocking window before
     this fire; prune older entries (they can no longer block anything). *)
  let window_start = now -. Jitter.irq_window in
  while
    (not (Netsim.Fring.is_empty t.recent_arrivals))
    && Netsim.Fring.peek t.recent_arrivals < window_start
  do
    ignore (Netsim.Fring.pop t.recent_arrivals : float)
  done;
  let arrivals_in_window = Netsim.Fring.length t.recent_arrivals in
  let sends_payload = not (Netsim.Ring.is_empty t.queue) in
  Kernel.emit_time t.jitter t.rng ~now ~sends_payload ~arrivals_in_window
    t.emit_clock 0;
  let emit_time = Float.Array.get t.emit_clock 0 in
  let pkt =
    if sends_payload then begin
      t.payload_sent <- t.payload_sent + 1;
      Obs.Metrics.incr m_payload_sent;
      Netsim.Ring.pop t.queue
    end
    else begin
      t.dummy_sent <- t.dummy_sent + 1;
      Obs.Metrics.incr m_dummy_sent;
      dummy_packet t now
    end
  in
  if Obs.Trace.enabled () then begin
    Netsim.Tracebuf.record ~time:now ~code:Netsim.Tracebuf.timer_fire
      ~x:(float_of_int (Netsim.Ring.length t.queue));
    Netsim.Tracebuf.record ~time:emit_time
      ~code:
        (if sends_payload then Netsim.Tracebuf.sent_payload
         else Netsim.Tracebuf.sent_dummy)
      ~x:(float_of_int pkt.Netsim.Packet.size_bytes)
  end;
  (* Strictly increasing emit times keep the multiply-armed event and the
     pending ring in lockstep: pops happen in push order. *)
  Netsim.Ring.push t.pending pkt;
  match t.emit_ev with
  | Some h -> Desim.Sim.rearm t.sim h ~delay:(emit_time -. now)
  | None ->
      t.emit_ev <- Some (Desim.Sim.at t.sim ~time:emit_time (emit_run t))

let create sim ~rng ~timer ~jitter ?(packet_size = 500) ?queue_limit ?interval
    ?buffers ~dest () =
  Timer.validate timer;
  if packet_size <= 0 then invalid_arg "Gateway.create: packet_size <= 0";
  (match queue_limit with
  | Some l when l < 1 -> invalid_arg "Gateway.create: queue_limit < 1"
  | _ -> ());
  let bufs =
    match buffers with
    | Some b ->
        Buffers.clear b;
        b
    | None -> Buffers.create ()
  in
  let t =
    {
      sim;
      rng;
      jitter;
      packet_size;
      queue_limit;
      dest;
      queue = bufs.Buffers.queue;
      recent_arrivals = bufs.Buffers.arrivals;
      pending = bufs.Buffers.pending;
      emit_ev = None;
      dummy = None;
      emit_clock = Float.Array.make 1 (Desim.Sim.now sim);
      payload_sent = 0;
      dummy_sent = 0;
      payload_dropped = 0;
      timer_handle = None;
    }
  in
  let interval =
    match interval with
    | Some f -> f
    | None ->
        let timer = Timer.sampler timer and slot = Float.Array.make 1 0.0 in
        fun () ->
          Timer.draw_into timer rng slot 0;
          Float.Array.get slot 0
  in
  let handle = Desim.Sim.every sim ~interval (on_fire t) in
  t.timer_handle <- Some handle;
  t

let input t pkt =
  if pkt.Netsim.Packet.kind <> Netsim.Packet.Payload then
    invalid_arg "Gateway.input: only payload packets enter the sender gateway";
  let over =
    match t.queue_limit with
    | Some l -> Netsim.Ring.length t.queue >= l
    | None -> false
  in
  (* The NIC interrupt fires for every arriving packet, even one the queue
     then drops — record it before the capacity check. *)
  Netsim.Fring.push t.recent_arrivals (Desim.Sim.now t.sim);
  if over then begin
    t.payload_dropped <- t.payload_dropped + 1;
    Obs.Metrics.incr m_payload_dropped;
    if Obs.Trace.enabled () then
      Obs.Trace.event ~name:"packet.dropped" ~t:(Desim.Sim.now t.sim)
        [ ("cause", Obs.Trace.S "gw_queue"); ("kind", Obs.Trace.S "payload") ]
  end
  else Netsim.Ring.push t.queue pkt

let stop t =
  match t.timer_handle with
  | Some h -> Desim.Sim.cancel h
  | None -> ()

let payload_sent t = t.payload_sent
let dummy_sent t = t.dummy_sent
let payload_dropped t = t.payload_dropped
let queue_length t = Netsim.Ring.length t.queue

let overhead t =
  Qos.dummy_fraction ~payload_sent:t.payload_sent ~dummy_sent:t.dummy_sent

let note_batch k =
  Obs.Metrics.add m_fires (Kernel.fires k);
  Obs.Metrics.add m_payload_sent (Kernel.payload_sent k);
  Obs.Metrics.add m_dummy_sent (Kernel.dummy_sent k);
  let occ = Kernel.occupancy k in
  for q = 0 to Array.length occ - 1 do
    if occ.(q) > 0 then
      Obs.Metrics.observe_n h_occupancy (float_of_int q) occ.(q)
  done
