type port = Packet.t -> unit

type t = {
  sim : Desim.Sim.t;
  bandwidth_bps : float;
  propagation : float;
  queue_limit : int option;
  dest : port;
  created_at : float;
  regs : floatarray; (* [Linkstage.serve]'s busy_until and busy-time sum *)
  (* Packets sent with [send_exiting] get no event.  Exiting packet p
     (counted from creation) keeps its finish time and the queue seq its
     departure event would have taken at slot p land (capacity - 1) of
     two rings; [exit_fin, exit_tail) await their finish and
     [exit_del, exit_fin) their far-end exit, so [exit_del] counts the
     exits so far.  Capacity is a power of two. *)
  mutable exit_times : floatarray;
  mutable exit_seqs : int array;
  mutable exit_fin : int;
  mutable exit_del : int;
  mutable exit_tail : int;
  (* The hop's cross train, if any: its arrivals exit like [send_exiting]
     packets of [cross_tx] transmit time. *)
  mutable cross : Cross_train.t option;
  mutable cross_tx : float;
  (* Run tallies, kept local so a send touches no shared state: the
     [netsim.link.*] metrics and deferred [packet.dropped] records reach
     Obs through [publish], which adds what it has not added yet. *)
  trace : Tracebuf.t;
  mutable queue_depth : int;
  mutable queue_hwm : int;
  mutable enqueued : int;
  mutable sent : int;
  mutable dropped : int;
  mutable published_enqueued : int;
  mutable published_dropped : int;
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
    exit_times = Float.Array.create 64;
    exit_seqs = Array.make 64 0;
    exit_fin = 0;
    exit_del = 0;
    exit_tail = 0;
    cross = None;
    cross_tx = 0.0;
    trace = Tracebuf.create ();
    queue_depth = 0;
    queue_hwm = 0;
    enqueued = 0;
    sent = 0;
    dropped = 0;
    published_enqueued = 0;
    published_dropped = 0;
  }

(* An exiting packet's departure at [time], recorded with [seq], is due
   once the event loop would have popped its event: before [now], or at
   [now] when it would have been pushed no later than the event being
   dispatched. *)
let[@inline] due t ~(time : float) ~seq ~(now : float) =
  time < now || (time = now && seq <= Desim.Sim.dispatch_seq t.sim)

(* Settle the exiting packets' due transmit finishes: the queue and
   [sent].  Runs before every send; [due] is inlined, so no time read
   here is boxed. *)
let[@inline] settle t ~(now : float) =
  let mask = Array.length t.exit_seqs - 1 in
  let continue = ref true in
  while !continue && t.exit_fin < t.exit_tail do
    let i = t.exit_fin land mask in
    if
      due t
        ~time:(Float.Array.unsafe_get t.exit_times i)
        ~seq:(Array.unsafe_get t.exit_seqs i)
        ~now
    then begin
      t.exit_fin <- t.exit_fin + 1;
      t.queue_depth <- t.queue_depth - 1;
      t.sent <- t.sent + 1
    end
    else continue := false
  done

(* Settle the far-end exits of settled finishes, one propagation delay
   later: only [exited] reads them, so this runs on a read and when the
   rings are full. *)
let settle_exits t ~now =
  settle t ~now;
  if t.propagation = 0.0 then t.exit_del <- t.exit_fin
  else begin
    let mask = Array.length t.exit_seqs - 1 in
    while
      t.exit_del < t.exit_fin
      && due t
           ~time:
             (Float.Array.unsafe_get t.exit_times (t.exit_del land mask)
             +. t.propagation)
           ~seq:(Array.unsafe_get t.exit_seqs (t.exit_del land mask))
           ~now
    do
      t.exit_del <- t.exit_del + 1
    done
  end

(* The part of a send every path shares: settle, then drop the packet or
   serve it.  True when it was enqueued; its finish is then busy-until,
   slot 0 of [regs]. *)
let[@inline] admit t ~now ~kind ~tx =
  settle t ~now;
  let over_limit =
    match t.queue_limit with Some l -> t.queue_depth >= l | None -> false
  in
  if over_limit then begin
    t.dropped <- t.dropped + 1;
    if Obs.Trace.enabled () then
      Tracebuf.push t.trace ~time:now
        ~code:
          (match kind with
          | Packet.Payload -> Tracebuf.drop_payload
          | Packet.Dummy -> Tracebuf.drop_dummy
          | Packet.Cross -> Tracebuf.drop_cross)
        ~x:0.0;
    false
  end
  else begin
    ignore (Linkstage.serve t.regs ~now ~tx : float);
    t.queue_depth <- t.queue_depth + 1;
    t.enqueued <- t.enqueued + 1;
    if t.queue_depth > t.queue_hwm then t.queue_hwm <- t.queue_depth;
    true
  end

let tx_of t pkt =
  Linkstage.tx_time ~size_bytes:pkt.Packet.size_bytes
    ~bandwidth_bps:t.bandwidth_bps

let send t pkt =
  if admit t ~now:(Desim.Sim.now t.sim) ~kind:pkt.Packet.kind ~tx:(tx_of t pkt)
  then begin
    let finish = Float.Array.get t.regs 0 in
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

(* An exiting packet accepted at [now]: keep its finish and the queue seq
   its departure event would have taken. *)
let[@inline] record_exit t ~now =
  let cap = Array.length t.exit_seqs in
  if t.exit_tail - t.exit_del = cap then settle_exits t ~now;
  (* Still full: doubling each ring by appending a copy keeps every
     pending packet p at slot p land mask under the doubled mask too. *)
  if t.exit_tail - t.exit_del = cap then begin
    t.exit_times <- Float.Array.append t.exit_times t.exit_times;
    t.exit_seqs <- Array.append t.exit_seqs t.exit_seqs
  end;
  let i = t.exit_tail land (Array.length t.exit_seqs - 1) in
  Float.Array.unsafe_set t.exit_times i (Float.Array.get t.regs 0);
  Array.unsafe_set t.exit_seqs i (Desim.Sim.next_seq t.sim);
  t.exit_tail <- t.exit_tail + 1

let send_exiting t pkt =
  let now = Desim.Sim.now t.sim in
  if admit t ~now ~kind:pkt.Packet.kind ~tx:(tx_of t pkt) then
    record_exit t ~now

(* The train's pending event, run by the simulator between dispatches:
   an arrival is [send_exiting] of a cross packet at the train's time,
   with no packet built. *)
let pull_cross t tr =
  let now = Float.Array.get (Cross_train.times tr) 0 in
  if Cross_train.step tr && admit t ~now ~kind:Packet.Cross ~tx:t.cross_tx
  then record_exit t ~now

let attach_cross t tr ~size_bytes =
  if Option.is_some t.cross then invalid_arg "Link.attach_cross: already fed";
  t.cross <- Some tr;
  t.cross_tx <- Linkstage.tx_time ~size_bytes ~bandwidth_bps:t.bandwidth_bps;
  Desim.Sim.add_train t.sim ~next:(Cross_train.times tr) (fun () ->
      pull_cross t tr)

let stop_cross t = Option.iter Cross_train.stop t.cross

(* talint: allow U001 — tests read it to observe the live link *)
let cross_train t = t.cross

let note ~enqueued ~dropped ~hwm =
  Obs.Metrics.add m_enqueued enqueued;
  Obs.Metrics.add m_dropped dropped;
  if hwm > 0 then Obs.Metrics.observe_hwm g_queue_hwm (float_of_int hwm)

let publish t =
  note
    ~enqueued:(t.enqueued - t.published_enqueued)
    ~dropped:(t.dropped - t.published_dropped)
    ~hwm:t.queue_hwm;
  t.published_enqueued <- t.enqueued;
  t.published_dropped <- t.dropped;
  Tracebuf.replay t.trace;
  Tracebuf.clear t.trace

let note_batch st =
  note ~enqueued:(Linkstage.enqueued st) ~dropped:(Linkstage.dropped st)
    ~hwm:(Linkstage.queue_hwm st)

let settled t = settle t ~now:(Desim.Sim.now t.sim)

(* talint: allow U001 — tests read it to observe the live link *)
let sent t =
  settled t;
  t.sent

(* talint: allow U001 — tests read it to observe the live link *)
let dropped t = t.dropped

(* talint: allow U001 — tests read it to observe the live link *)
let queue_depth t =
  settled t;
  t.queue_depth

(* talint: allow U001 — [Router.diverted] reads it, for tests *)
let exited t =
  settle_exits t ~now:(Desim.Sim.now t.sim);
  t.exit_del

let utilization t =
  Linkstage.busy_fraction t.regs ~created_at:t.created_at
    ~now:(Desim.Sim.now t.sim)
