type t = {
  sim : Desim.Sim.t;
  rng : Prng.Rng.t;
  min_period : float;
  max_period : float;
  window : float;
  target_queue : float;
  jitter : Jitter.t;
  packet_size : int;
  dest : Netsim.Link.port;
  queue : Netsim.Packet.t Netsim.Ring.t;
  arrivals : Netsim.Fring.t;  (* payload arrival times within the window *)
  pending : Netsim.Packet.t Netsim.Ring.t;
  mutable emit_ev : Desim.Sim.handle option;
  mutable dummy : Netsim.Packet.t option;
  mutable period : float;
  mutable last_emit : float;
  mutable payload_sent : int;
  mutable dummy_sent : int;
  mutable stopped : bool;
  mutable timer_handle : Desim.Sim.handle option;
}

let estimate_rate t =
  let now = Desim.Sim.now t.sim in
  while
    (not (Netsim.Fring.is_empty t.arrivals))
    && Netsim.Fring.peek t.arrivals < now -. t.window
  do
    ignore (Netsim.Fring.pop t.arrivals : float)
  done;
  float_of_int (Netsim.Fring.length t.arrivals) /. t.window

let adapt t =
  (* Aim the send rate slightly above the estimated payload rate so the
     queue stays near target_queue; clamp to the configured band. *)
  let rate = estimate_rate t in
  let backlog = float_of_int (Netsim.Ring.length t.queue) in
  let pressure = 1.0 +. (0.5 *. (backlog -. t.target_queue)) in
  let desired_rate = Float.max 1.0 (rate *. Float.max pressure 0.1) in
  let p = 1.0 /. desired_rate in
  t.period <- Float.min t.max_period (Float.max t.min_period p)

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

let fire t () =
  if not t.stopped then begin
    let now = Desim.Sim.now t.sim in
    let sends_payload = not (Netsim.Ring.is_empty t.queue) in
    let emit_time =
      Kernel.emit_time t.jitter t.rng ~now ~last_emit:t.last_emit
        ~sends_payload ~arrivals_in_window:0
    in
    t.last_emit <- emit_time;
    let pkt =
      if sends_payload then begin
        t.payload_sent <- t.payload_sent + 1;
        Netsim.Ring.pop t.queue
      end
      else begin
        t.dummy_sent <- t.dummy_sent + 1;
        dummy_packet t now
      end
    in
    Netsim.Ring.push t.pending pkt;
    (match t.emit_ev with
    | Some h -> Desim.Sim.rearm t.sim h ~delay:(emit_time -. now)
    | None ->
        t.emit_ev <- Some (Desim.Sim.at t.sim ~time:emit_time (emit_run t)));
    adapt t
  end

let create sim ~rng ?(min_period = 0.010) ?(max_period = 0.040)
    ?(window = 1.0) ?(target_queue = 0.5) ~jitter ?(packet_size = 500)
    ?buffers ~dest () =
  if min_period <= 0.0 || max_period < min_period then
    invalid_arg "Adaptive.create: bad period band";
  if window <= 0.0 then invalid_arg "Adaptive.create: window <= 0";
  let bufs =
    match buffers with
    | Some b ->
        Gateway.Buffers.clear b;
        b
    | None -> Gateway.Buffers.create ()
  in
  let t =
    {
      sim;
      rng;
      min_period;
      max_period;
      window;
      target_queue;
      jitter;
      packet_size;
      dest;
      queue = bufs.Gateway.Buffers.queue;
      arrivals = bufs.Gateway.Buffers.arrivals;
      pending = bufs.Gateway.Buffers.pending;
      emit_ev = None;
      dummy = None;
      period = max_period;
      last_emit = Desim.Sim.now sim;
      payload_sent = 0;
      dummy_sent = 0;
      stopped = false;
      timer_handle = None;
    }
  in
  (* One event record drives the whole timer train; the interval closure
     reads the freshly adapted period each tick. *)
  t.timer_handle <- Some (Desim.Sim.every sim ~interval:(fun () -> t.period) (fire t));
  t

let input t pkt =
  if pkt.Netsim.Packet.kind <> Netsim.Packet.Payload then
    invalid_arg "Adaptive.input: only payload packets";
  Netsim.Ring.push t.queue pkt;
  Netsim.Fring.push t.arrivals (Desim.Sim.now t.sim)

let stop t =
  t.stopped <- true;
  match t.timer_handle with
  | Some h -> Desim.Sim.cancel h
  | None -> ()

(* talint: allow U001 — tests read it to observe live adaptation *)
let current_period t = t.period

let overhead t =
  Qos.dummy_fraction ~payload_sent:t.payload_sent ~dummy_sent:t.dummy_sent
