type payload_model = Poisson_payload | Cbr_payload

type config = {
  seed : int;
  timer : Padding.Timer.law;
  jitter : Padding.Jitter.t;
  payload_rate_pps : float;
  payload_model : payload_model;
  packet_size : int;
  hops : Netsim.Topology.hop_spec array;
  tap_position : int;
  warmup_piats : int;
}

let default_config =
  {
    seed = 42;
    timer = Padding.Timer.Constant 0.010;
    jitter = Padding.Jitter.mechanistic ();
    payload_rate_pps = 10.0;
    payload_model = Poisson_payload;
    packet_size = 500;
    hops = [||];
    tap_position = 0;
    warmup_piats = 200;
  }

type result = {
  piats : float array;
  timestamps : float array;
  overhead : float;
  payload_offered : int;
  payload_delivered : int;
  payload_dropped_gw : int;
  mean_payload_latency : float;
  sim_time : float;
}

(* Written as [not (x > 0.0)] so a NaN rate fails too. *)
let validate_sender ~timer ~payload_rate_pps ~packet_size ~warmup_piats =
  Padding.Timer.validate timer;
  if not (payload_rate_pps > 0.0) then invalid_arg "System: payload_rate <= 0";
  if not (Float.is_finite payload_rate_pps) then
    invalid_arg "System: payload_rate not finite";
  if packet_size <= 0 then invalid_arg "System: packet_size <= 0";
  if warmup_piats < 0 then invalid_arg "System: warmup_piats < 0"

let validate cfg =
  validate_sender ~timer:cfg.timer ~payload_rate_pps:cfg.payload_rate_pps
    ~packet_size:cfg.packet_size ~warmup_piats:cfg.warmup_piats

(* Two arrays per run, straight from the tap's vector: the timestamps
   after the warm-up (overshoot included) and at most [limit] of their
   PIATs. *)
let after_warmup ~warmup_piats ?limit (tap : Netsim.Fvec.t) =
  let drop = warmup_piats + 1 in
  let timestamps =
    if tap.len <= drop then [||] else Array.sub tap.data drop (tap.len - drop)
  in
  (timestamps, Netsim.Trace.piats ?limit timestamps)

(* The three streams split off the seed's root, in payload, gateway,
   cross order; both engines draw from them. *)
let streams seed =
  let root = Prng.Rng.create ~seed in
  let payload = Prng.Rng.split root in
  let gateway = Prng.Rng.split root in
  let cross = Prng.Rng.split root in
  (payload, gateway, cross)

(* The one event-loop driver: payload source -> sender -> chain -> tap ->
   receiver, dispatched event by event until the tap holds [target]
   timestamps.  Creation order is receiver, chain, sender, source: it
   fixes the queue seqs of the initial events, and those seqs break time
   ties.  [sender] returns its input port and a [finish] that stops it
   and returns its overhead.  Runs inside the caller's
   [Obs.Trace.with_run]. *)
let drive ~scenario cfg ~sender ~target ~expected_rate =
  let arena = Arena.get () in
  let sim = arena.Arena.sim in
  Exec.Supervise.arm_event_budget sim;
  let rng_payload, rng_gateway, rng_cross = streams cfg.seed in
  let receiver = Padding.Receiver.create sim () in
  let topo =
    Netsim.Topology.chain sim ~rng:rng_cross ~hops:cfg.hops
      ~tap_position:cfg.tap_position
      ~tap_buffers:(Arena.tap_buffers arena)
      ~dest:(Padding.Receiver.port receiver)
      ()
  in
  let input, finish =
    sender sim ~buffers:arena.Arena.gw ~rng:rng_gateway
      ~dest:topo.Netsim.Topology.entry
  in
  let source =
    match cfg.payload_model with
    | Poisson_payload ->
        Netsim.Traffic_gen.poisson sim ~rng:rng_payload
          ~rate_pps:cfg.payload_rate_pps ~size_bytes:cfg.packet_size
          ~kind:Netsim.Packet.Payload ~dest:input ()
    | Cbr_payload ->
        Netsim.Traffic_gen.cbr sim ~rate_pps:cfg.payload_rate_pps
          ~size_bytes:cfg.packet_size ~kind:Netsim.Packet.Payload ~dest:input
          ()
  in
  Starvation.run_until_tap_count ~scenario ~slack:1.1 ~min_chunk:0.1 sim
    ~tap:topo.Netsim.Topology.tap ~target ~expected_rate;
  Netsim.Traffic_gen.stop source;
  let overhead = finish () in
  Netsim.Topology.stop_cross topo;
  Desim.Sim.publish_metrics sim;
  {
    (* [Arena.tap_buffers] made the tap record into [tap_times]. *)
    Fastpath.tap_times = arena.Arena.tap_times;
    overhead;
    payload_offered = Netsim.Traffic_gen.generated source;
    payload_delivered = Padding.Receiver.payload_received receiver;
    mean_payload_latency = Padding.Receiver.mean_payload_latency receiver;
    sim_time = Desim.Sim.now sim;
  }

let result cfg ?limit (o : Fastpath.outcome) =
  let timestamps, piats =
    after_warmup ~warmup_piats:cfg.warmup_piats ?limit o.Fastpath.tap_times
  in
  {
    piats;
    timestamps;
    overhead = o.Fastpath.overhead;
    payload_offered = o.Fastpath.payload_offered;
    payload_delivered = o.Fastpath.payload_delivered;
    (* No sender here has a queue limit, so none drops payload. *)
    payload_dropped_gw = 0;
    mean_payload_latency = o.Fastpath.mean_payload_latency;
    sim_time = o.Fastpath.sim_time;
  }

let traced ~scenario cfg f =
  Obs.Trace.with_run
    (Printf.sprintf "%s seed=%d pps=%g" scenario cfg.seed cfg.payload_rate_pps)
    f

let gateway_sender cfg sim ~buffers ~rng ~dest =
  let gw =
    Padding.Gateway.create sim ~rng ~timer:cfg.timer ~jitter:cfg.jitter
      ~packet_size:cfg.packet_size ~buffers ~dest ()
  in
  ( Padding.Gateway.input gw,
    fun () ->
      Padding.Gateway.stop gw;
      Padding.Gateway.overhead gw )

(* Why a run is not kernel-eligible, or [None] when it is.  The fused
   kernels model Poisson payload and Poisson/absent cross traffic only;
   anything else (and a process-wide disable) takes the event loop. *)
let kernel_fallback cfg =
  if not (Fastpath.enabled ()) then Some Fastpath.Disabled
  else if cfg.payload_model <> Poisson_payload then Some Fastpath.Cbr_payload
  else if not (Fastpath.eligible_hops cfg.hops) then Some Fastpath.Onoff_cross
  else None

let run cfg ~piats =
  validate cfg;
  if piats < 1 then invalid_arg "System.run: piats < 1";
  traced ~scenario:"system.run" cfg @@ fun () ->
  (* [piats] gaps need piats + 1 timestamps after the trim drops
     warmup + 1 of them; chunked running may stop exactly on target. *)
  let target = piats + cfg.warmup_piats + 2 in
  let expected_rate = 1.0 /. Padding.Timer.mean cfg.timer in
  let event_loop () =
    drive ~scenario:"system.run" cfg
      ~sender:(gateway_sender cfg) ~target ~expected_rate
  in
  result cfg ~limit:piats
  @@
  match kernel_fallback cfg with
  | Some reason ->
      Fastpath.note_fallback reason;
      event_loop ()
  | None -> (
      let rng_payload, rng_gateway, rng_cross = streams cfg.seed in
      match
        Fastpath.try_run ~scenario:"system.run" ~rng_payload
          ~rng_gateway ~rng_cross ~timer:cfg.timer ~jitter:cfg.jitter
          ~payload_rate_pps:cfg.payload_rate_pps ~packet_size:cfg.packet_size
          ~hops:cfg.hops ~tap_position:cfg.tap_position ~target ~expected_rate
      with
      | None ->
          (* A cross-stream time tie the kernel cannot order; nothing was
             published, so the event loop reruns the config cleanly. *)
          Fastpath.note_fallback Fastpath.Tie;
          event_loop ()
      | Some o -> o)

let run_mix ?(threshold = 8) ?(timeout = 0.5) cfg ~piats =
  validate cfg;
  if piats < 1 then invalid_arg "System.run_mix: piats < 1";
  traced ~scenario:"system.mix" cfg @@ fun () ->
  let sender sim ~buffers:_ ~rng ~dest =
    let mix =
      Padding.Mix.create sim ~rng ~threshold ~timeout
        ~packet_size:cfg.packet_size ~dest ()
    in
    ( Padding.Mix.input mix,
      fun () ->
        Padding.Mix.stop mix;
        Padding.Mix.overhead mix )
  in
  (* Each timeout flush emits [threshold] packets, so the slowest possible
     wire rate is threshold/timeout. *)
  result cfg ~limit:piats
    (drive ~scenario:"system.mix" cfg ~sender
       ~target:(piats + cfg.warmup_piats + 2)
       ~expected_rate:(float_of_int threshold /. timeout))

let run_adaptive cfg ~piats =
  validate cfg;
  if piats < 1 then invalid_arg "System.run_adaptive: piats < 1";
  traced ~scenario:"system.adaptive" cfg @@ fun () ->
  let sender sim ~buffers ~rng ~dest =
    let gw =
      Padding.Adaptive.create sim ~rng ~jitter:cfg.jitter
        ~packet_size:cfg.packet_size ~buffers ~dest ()
    in
    ( Padding.Adaptive.input gw,
      fun () ->
        Padding.Adaptive.stop gw;
        Padding.Adaptive.overhead gw )
  in
  (* Worst case the adaptive gateway idles at max_period. *)
  result cfg ~limit:piats
    (drive ~scenario:"system.adaptive" cfg ~sender
       ~target:(piats + cfg.warmup_piats + 2)
       ~expected_rate:(1.0 /. Padding.Adaptive.max_period))

let run_unpadded cfg ~packets =
  validate cfg;
  if packets < 1 then invalid_arg "System.run_unpadded: packets < 1";
  traced ~scenario:"system.unpadded" cfg @@ fun () ->
  let sender _sim ~buffers:_ ~rng:_ ~dest = (dest, fun () -> 0.0) in
  result cfg
    (drive ~scenario:"system.unpadded" cfg ~sender
       ~target:(packets + cfg.warmup_piats + 2)
       ~expected_rate:cfg.payload_rate_pps)
