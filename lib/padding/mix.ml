type t = {
  sim : Desim.Sim.t;
  rng : Prng.Rng.t;
  threshold : int;
  timeout : float;
  flush_spacing : float;
  packet_size : int;
  dest : Netsim.Link.port;
  queue : Netsim.Packet.t Queue.t;
  mutable timeout_handle : Desim.Sim.handle option;
  mutable flushes : int;
  mutable payload_sent : int;
  mutable dummy_sent : int;
  mutable stopped : bool;
}

let cancel_timeout t =
  match t.timeout_handle with
  | Some h ->
      Desim.Sim.cancel h;
      t.timeout_handle <- None
  | None -> ()

let flush t =
  if not t.stopped then begin
    cancel_timeout t;
    t.flushes <- t.flushes + 1;
    let now = Desim.Sim.now t.sim in
    (* Emit exactly [threshold] packets: the queued batch (in shuffled
       order — the mix's whole point) completed with dummies. *)
    let batch = Array.make t.threshold None in
    let k = ref 0 in
    while (not (Queue.is_empty t.queue)) && !k < t.threshold do
      batch.(!k) <- Some (Queue.pop t.queue);
      incr k
    done;
    Prng.Sampler.shuffle t.rng batch;
    Array.iteri
      (fun i slot ->
        let pkt =
          match slot with
          | Some p ->
              t.payload_sent <- t.payload_sent + 1;
              p
          | None ->
              t.dummy_sent <- t.dummy_sent + 1;
              Netsim.Packet.make ~kind:Netsim.Packet.Dummy
                ~size_bytes:t.packet_size ~created:now
        in
        ignore
          (Desim.Sim.at t.sim
             ~time:(now +. (float_of_int i *. t.flush_spacing))
             (fun () -> t.dest pkt)
            : Desim.Sim.handle))
      batch
  end

let create sim ~rng ?(threshold = 8) ?(timeout = 0.5) ?(flush_spacing = 1e-3)
    ?(packet_size = 500) ~dest () =
  if threshold < 1 then invalid_arg "Mix.create: threshold < 1";
  if timeout <= 0.0 then invalid_arg "Mix.create: timeout <= 0";
  if flush_spacing < 0.0 then invalid_arg "Mix.create: flush_spacing < 0";
  if packet_size <= 0 then invalid_arg "Mix.create: packet_size <= 0";
  {
    sim;
    rng;
    threshold;
    timeout;
    flush_spacing;
    packet_size;
    dest;
    queue = Queue.create ();
    timeout_handle = None;
    flushes = 0;
    payload_sent = 0;
    dummy_sent = 0;
    stopped = false;
  }

let input t pkt =
  if pkt.Netsim.Packet.kind <> Netsim.Packet.Payload then
    invalid_arg "Mix.input: only payload packets enter the mix";
  if not t.stopped then begin
    Queue.push pkt t.queue;
    if Queue.length t.queue >= t.threshold then flush t
    else if t.timeout_handle = None then
      t.timeout_handle <-
        Some (Desim.Sim.after t.sim ~delay:t.timeout (fun () ->
                  t.timeout_handle <- None;
                  flush t))
  end

let stop t =
  cancel_timeout t;
  t.stopped <- true

(* talint: allow U001 — tests read it to observe the live mix *)
let flushes t = t.flushes
(* talint: allow U001 — tests read it to observe the live mix *)
let payload_sent t = t.payload_sent
(* talint: allow U001 — tests read it to observe the live mix *)
let dummy_sent t = t.dummy_sent

let overhead t =
  Qos.dummy_fraction ~payload_sent:t.payload_sent ~dummy_sent:t.dummy_sent
