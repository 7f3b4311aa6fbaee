type port = Packet.t -> unit

type t = {
  sim : Desim.Sim.t;
  bandwidth_bps : float;
  propagation : float;
  queue_limit : int option;
  dest : port;
  created_at : float;
  regs : floatarray; (* [Linkstage.serve]'s busy_until and busy-time sum *)
  mutable queue_depth : int;
  mutable queue_hwm : int;
  mutable sent : int;
  mutable dropped : int;
}

let m_enqueued = Obs.Metrics.counter "netsim.link.enqueued"
let m_dropped = Obs.Metrics.counter "netsim.link.dropped"
let g_queue_hwm = Obs.Metrics.gauge "netsim.link.queue_hwm"

(* Written as [not (x > 0.0)] so a NaN parameter fails too. *)
let validate ~bandwidth_bps ~propagation ~queue_limit =
  if not (bandwidth_bps > 0.0) then invalid_arg "Link.create: bandwidth <= 0";
  if not (propagation >= 0.0) then invalid_arg "Link.create: propagation < 0";
  match queue_limit with
  | Some l when l < 1 -> invalid_arg "Link.create: queue_limit < 1"
  | _ -> ()

let create sim ~bandwidth_bps ?(propagation = 0.0) ?queue_limit ~dest () =
  validate ~bandwidth_bps ~propagation ~queue_limit;
  let regs = Float.Array.make 2 0.0 in
  Float.Array.set regs 0 (Desim.Sim.now sim);
  {
    sim;
    bandwidth_bps;
    propagation;
    queue_limit;
    dest;
    created_at = Desim.Sim.now sim;
    regs;
    queue_depth = 0;
    queue_hwm = 0;
    sent = 0;
    dropped = 0;
  }

let send t pkt =
  let now = Desim.Sim.now t.sim in
  let over_limit =
    match t.queue_limit with Some l -> t.queue_depth >= l | None -> false
  in
  if over_limit then begin
    t.dropped <- t.dropped + 1;
    Obs.Metrics.incr m_dropped;
    if Obs.Trace.enabled () then
      Tracebuf.record ~time:now
        ~code:
          (match pkt.Packet.kind with
          | Packet.Payload -> Tracebuf.drop_payload
          | Packet.Dummy -> Tracebuf.drop_dummy
          | Packet.Cross -> Tracebuf.drop_cross)
        ~x:0.0
  end
  else begin
    let tx =
      Linkstage.tx_time ~size_bytes:pkt.Packet.size_bytes
        ~bandwidth_bps:t.bandwidth_bps
    in
    let finish = Linkstage.serve t.regs ~now ~tx in
    t.queue_depth <- t.queue_depth + 1;
    Obs.Metrics.incr m_enqueued;
    if t.queue_depth > t.queue_hwm then begin
      t.queue_hwm <- t.queue_depth;
      Obs.Metrics.observe_hwm g_queue_hwm (float_of_int t.queue_depth)
    end;
    (* The packet leaves the transmitter (and the queue) at [finish]; it
       reaches the far end one propagation delay later.  Fuse the two
       events when there is no propagation delay — that halves the event
       count on the hot zero-delay hops. *)
    if t.propagation = 0.0 then
      ignore
        (Desim.Sim.at t.sim ~time:finish (fun () ->
             t.queue_depth <- t.queue_depth - 1;
             t.sent <- t.sent + 1;
             t.dest pkt)
          : Desim.Sim.handle)
    else begin
      ignore
        (Desim.Sim.at t.sim ~time:finish (fun () ->
             t.queue_depth <- t.queue_depth - 1;
             t.sent <- t.sent + 1)
          : Desim.Sim.handle);
      let arrival = finish +. t.propagation in
      ignore
        (Desim.Sim.at t.sim ~time:arrival (fun () -> t.dest pkt)
          : Desim.Sim.handle)
    end
  end

let note_batch st =
  Obs.Metrics.add m_enqueued (Linkstage.enqueued st);
  Obs.Metrics.add m_dropped (Linkstage.dropped st);
  let hwm = Linkstage.queue_hwm st in
  if hwm > 0 then Obs.Metrics.observe_hwm g_queue_hwm (float_of_int hwm)

let port t = send t
let sent t = t.sent
let dropped t = t.dropped
let queue_depth t = t.queue_depth

let utilization t =
  Linkstage.busy_fraction t.regs ~created_at:t.created_at
    ~now:(Desim.Sim.now t.sim)
