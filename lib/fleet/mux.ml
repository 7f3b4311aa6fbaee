(* Fleet mux: one superposed arrival process per gateway shard,
   demultiplexed onto per-flow state.

   Simulating 10^4..10^6 independent per-flow Poisson sources would cost
   one pending event per flow.  The superposition theorem says the union
   of independent Poisson flows is a Poisson process at the summed rate
   whose arrivals belong to flow f with probability rate_f / rate_total —
   so each shard runs ONE arrival train at its aggregate rate
   (Lewis–Shedler thinning when a diurnal modulation is installed) and
   attributes every accepted arrival to a flow drawn class-proportionally.
   That is statistically identical to per-flow sources at O(1) event cost
   per arrival and zero per-flow allocation: the only per-flow storage is
   the Flow_table's flat columns.

   Shards are gateways: each owns a contiguous balanced slice of the
   global flow-id space and an independent padded gateway + receiver pair,
   so shard simulations share no state and fan out on Exec.Pool with
   index-derived seeds — results are bit-identical at any --jobs. *)

type rate_class = { label : string; rate_pps : float; fraction : float }

type config = {
  seed : int;
  flows : int;
  gateways : int;
  classes : rate_class array;
  timer : Padding.Timer.law;
  jitter : Padding.Jitter.t;
  packet_size : int;
  duration : float;
  modulation : (float -> float) option;
}

(* The calibration mix: half the fleet at the paper's low rate, half at
   the high rate (Calibration.rate_low_pps / rate_high_pps). *)
let default_classes =
  (* talint: allow R001 — read-only default mixture, never written *)
  [|
    { label = "10pps"; rate_pps = 10.0; fraction = 0.5 };
    { label = "40pps"; rate_pps = 40.0; fraction = 0.5 };
  |]

let default_config =
  {
    seed = 42;
    flows = 10_000;
    gateways = 8;
    classes = default_classes;
    timer = Padding.Timer.Constant 0.010;
    jitter = Padding.Jitter.mechanistic ();
    packet_size = 500;
    duration = 2.0;
    modulation = None;
  }

let validate cfg =
  Padding.Timer.validate cfg.timer;
  if cfg.flows < 1 then invalid_arg "Fleet.Mux: flows < 1";
  if cfg.gateways < 1 || cfg.gateways > cfg.flows then
    invalid_arg "Fleet.Mux: gateways outside [1, flows]";
  if cfg.packet_size <= 0 then invalid_arg "Fleet.Mux: packet_size <= 0";
  if Float.is_nan cfg.duration || cfg.duration <= 0.0 then
    invalid_arg "Fleet.Mux: duration <= 0";
  if Array.length cfg.classes = 0 then
    invalid_arg "Fleet.Mux: empty class mixture";
  if Array.length cfg.classes > 256 then
    invalid_arg "Fleet.Mux: more than 256 rate classes";
  Array.iter
    (fun c ->
      if Float.is_nan c.rate_pps || c.rate_pps <= 0.0 then
        invalid_arg "Fleet.Mux: class rate_pps <= 0";
      if Float.is_nan c.fraction || c.fraction < 0.0 then
        invalid_arg "Fleet.Mux: class fraction < 0")
    cfg.classes;
  let total = Array.fold_left (fun a c -> a +. c.fraction) 0.0 cfg.classes in
  if Float.abs (total -. 1.0) > 1e-9 then
    invalid_arg "Fleet.Mux: class fractions must sum to 1"

(* Contiguous class ranges over global flow ids: class c covers
   [bounds.(c), bounds.(c + 1)).  A pure function of the config, so a
   flow's class never depends on sharding. *)
let class_bounds cfg =
  let k = Array.length cfg.classes in
  let bounds = Array.make (k + 1) 0 in
  let cum = ref 0.0 in
  for c = 0 to k - 1 do
    cum := !cum +. cfg.classes.(c).fraction;
    bounds.(c + 1) <-
      int_of_float (Float.round (!cum *. float_of_int cfg.flows))
  done;
  bounds.(k) <- cfg.flows;
  for c = 1 to k do
    if bounds.(c) < bounds.(c - 1) then bounds.(c) <- bounds.(c - 1)
  done;
  bounds

let class_of_flow cfg flow =
  if flow < 0 || flow >= cfg.flows then
    invalid_arg "Fleet.Mux.class_of_flow: flow out of range";
  let bounds = class_bounds cfg in
  let k = Array.length cfg.classes in
  let rec find c = if c = k - 1 || flow < bounds.(c + 1) then c else find (c + 1) in
  find 0

(* Balanced contiguous split: shard g covers [flows*g/G, flows*(g+1)/G) —
   never empty when gateways <= flows, sizes differ by at most one. *)
let shard_range cfg ~gateway =
  if gateway < 0 || gateway >= cfg.gateways then
    invalid_arg "Fleet.Mux.shard_range: gateway out of range";
  (cfg.flows * gateway / cfg.gateways, cfg.flows * (gateway + 1) / cfg.gateways)

type env = {
  sim : Desim.Sim.t;
  gw_buffers : Padding.Gateway.Buffers.t option;
}

type shard_result = {
  table : Flow_table.t;
  arrivals : int;
  payload_sent : int;
  dummy_sent : int;
  payload_dropped : int;
  payload_delivered : int;
  mean_payload_latency : float;
  events_processed : int;
  sim_time : float;
}

let arrivals_c = Obs.Metrics.counter "fleet.mux.arrivals"
let dummies_c = Obs.Metrics.counter "fleet.mux.dummies"
let flows_hwm = Obs.Metrics.gauge "fleet.mux.flows"

(* The per-arrival fast path, hoisted to module level so the A001
   hot-path manifest (lint/hot_paths.txt) can name it and verify it
   allocation-free.  Everything the handler needs is threaded through
   one context record built once per shard; the only allocation on the
   path is the packet record itself, inside [Netsim.Packet.make_gen]
   (waived in lint/BASELINE.json — packet identity needs it). *)
type arrival_ctx = {
  ac_table : Flow_table.t;
  ac_c_lo : int array;        (* per-class first flow of this shard *)
  ac_counts : int array;      (* per-class flow count of this shard *)
  ac_cum : float array;       (* cumulative class rates *)
  ac_k : int;
  ac_rate_base : float;
  ac_rng_pick : Prng.Rng.t;
  ac_class_hits : int array;
  ac_packet_size : int;
  ac_idgen : Netsim.Packet.Id_gen.gen;
  ac_input : Netsim.Link.port;
}

let rec last_nonempty counts c =
  if counts.(c) > 0 then c else last_nonempty counts (c - 1)

(* First class with u < cum.(c); empty classes have zero-width cum
   intervals and are never picked.  Fall back to the last non-empty
   class against FP rounding at the top edge. *)
let rec pick_scan counts cum k u c =
  if c = k then last_nonempty counts (k - 1)
  else if counts.(c) > 0 && u < cum.(c) then c
  else pick_scan counts cum k u (c + 1)

let pick_class ctx u = pick_scan ctx.ac_counts ctx.ac_cum ctx.ac_k u 0

let handle_arrival ctx now =
  let c = pick_class ctx (Prng.Rng.float ctx.ac_rng_pick *. ctx.ac_rate_base) in
  let flow =
    ctx.ac_c_lo.(c) + Prng.Rng.int ctx.ac_rng_pick ~bound:ctx.ac_counts.(c)
  in
  Flow_table.record ctx.ac_table ~flow ~bytes:ctx.ac_packet_size ~now;
  ctx.ac_class_hits.(c) <- ctx.ac_class_hits.(c) + 1;
  ctx.ac_input
    (Netsim.Packet.make_gen ctx.ac_idgen ~kind:Netsim.Packet.Payload
       ~size_bytes:ctx.ac_packet_size ~created:now)

let run_shard ?env cfg ~gateway =
  validate cfg;
  let lo, hi = shard_range cfg ~gateway in
  let n = hi - lo in
  let sim, gw_buffers =
    match env with
    | Some e -> (e.sim, e.gw_buffers)
    | None -> (Desim.Sim.create (), None)
  in
  Exec.Supervise.arm_event_budget sim;
  let k = Array.length cfg.classes in
  let bounds = class_bounds cfg in
  let table = Flow_table.create ~lo ~flows:n () in
  (* This shard's slice of each class range, and the per-class aggregate
     rates driving the class pick. *)
  let c_lo = Array.init k (fun c -> Stdlib.max lo bounds.(c)) in
  let counts =
    Array.init k (fun c ->
        Stdlib.max 0 (Stdlib.min hi bounds.(c + 1) - c_lo.(c)))
  in
  for c = 0 to k - 1 do
    for f = c_lo.(c) to c_lo.(c) + counts.(c) - 1 do
      Flow_table.set_class table ~flow:f c
    done
  done;
  let cum = Array.make k 0.0 in
  let total = ref 0.0 in
  for c = 0 to k - 1 do
    total := !total +. (float_of_int counts.(c) *. cfg.classes.(c).rate_pps);
    cum.(c) <- !total
  done;
  let rate_base = !total in
  let root = Prng.Rng.create ~seed:(Prng.Rng.mix_seed cfg.seed gateway) in
  let rng_arrivals = Prng.Rng.split root in
  let rng_pick = Prng.Rng.split root in
  let rng_gateway = Prng.Rng.split root in
  let receiver = Padding.Receiver.create sim () in
  let gw =
    Padding.Gateway.create sim ~rng:rng_gateway ~timer:cfg.timer
      ~jitter:cfg.jitter ~packet_size:cfg.packet_size ?buffers:gw_buffers
      ~dest:(Padding.Receiver.port receiver) ()
  in
  let input = Padding.Gateway.input gw in
  let idgen = Netsim.Packet.Id_gen.create () in
  let class_hits = Array.make k 0 in
  let rate_fn =
    match cfg.modulation with
    | None -> fun _ -> rate_base
    | Some m ->
        fun t ->
          let x = m t in
          if Float.is_nan x || x < 0.0 || x > 1.0 then
            invalid_arg "Fleet.Mux: modulation outside [0, 1]";
          rate_base *. x
  in
  let ctx =
    {
      ac_table = table;
      ac_c_lo = c_lo;
      ac_counts = counts;
      ac_cum = cum;
      ac_k = k;
      ac_rate_base = rate_base;
      ac_rng_pick = rng_pick;
      ac_class_hits = class_hits;
      ac_packet_size = cfg.packet_size;
      ac_idgen = idgen;
      ac_input = input;
    }
  in
  let source =
    Netsim.Traffic_gen.modulated_arrivals sim ~rng:rng_arrivals ~rate_fn
      ~rate_max:rate_base
      ~f:(handle_arrival ctx)
      ()
  in
  Desim.Sim.run_until sim ~time:cfg.duration;
  Netsim.Traffic_gen.stop source;
  Padding.Gateway.stop gw;
  let events = Desim.Sim.events_processed sim in
  Desim.Sim.publish_metrics sim;
  let dummy_sent = Padding.Gateway.dummy_sent gw in
  Flow_table.spread_dummies table ~count:dummy_sent;
  let arrivals = Netsim.Traffic_gen.generated source in
  Obs.Metrics.add arrivals_c arrivals;
  Obs.Metrics.add dummies_c dummy_sent;
  Obs.Metrics.observe_hwm flows_hwm (float_of_int cfg.flows);
  for c = 0 to k - 1 do
    Obs.Metrics.add
      (Obs.Metrics.counter_labeled "fleet.mux.class_arrivals"
         ~label:("class", cfg.classes.(c).label))
      class_hits.(c)
  done;
  {
    table;
    arrivals;
    payload_sent = Padding.Gateway.payload_sent gw;
    dummy_sent;
    payload_dropped = Padding.Gateway.payload_dropped gw;
    payload_delivered = Padding.Receiver.payload_received receiver;
    mean_payload_latency = Padding.Receiver.mean_payload_latency receiver;
    events_processed = events;
    sim_time = Desim.Sim.now sim;
  }

type result = {
  table : Flow_table.t;
  arrivals : int;
  payload_sent : int;
  dummy_sent : int;
  payload_dropped : int;
  payload_delivered : int;
  mean_payload_latency : float;
  overhead : float;
  events_processed : int;
  duration : float;
}

let run ?env_for cfg =
  validate cfg;
  let shards =
    Exec.Pool.parallel_init cfg.gateways (fun g ->
        let env = Option.map (fun f -> f g) env_for in
        run_shard ?env cfg ~gateway:g)
  in
  let table =
    match
      Array.fold_left
        (fun acc (s : shard_result) ->
          match acc with
          | None -> Some s.table
          | Some t -> Some (Flow_table.merge t s.table))
        None shards
    with
    | Some t -> t
    | None -> assert false (* gateways >= 1 *)
  in
  let sum f = Array.fold_left (fun a (s : shard_result) -> a + f s) 0 shards in
  let arrivals = sum (fun s -> s.arrivals) in
  let payload_sent = sum (fun s -> s.payload_sent) in
  let dummy_sent = sum (fun s -> s.dummy_sent) in
  let payload_delivered = sum (fun s -> s.payload_delivered) in
  let mean_payload_latency =
    if payload_delivered = 0 then 0.0
    else
      Array.fold_left
        (fun a (s : shard_result) ->
          a +. (s.mean_payload_latency *. float_of_int s.payload_delivered))
        0.0 shards
      /. float_of_int payload_delivered
  in
  {
    table;
    arrivals;
    payload_sent;
    dummy_sent;
    payload_dropped = sum (fun s -> s.payload_dropped);
    payload_delivered;
    mean_payload_latency;
    overhead = Padding.Qos.dummy_fraction ~payload_sent ~dummy_sent;
    events_processed = sum (fun s -> s.events_processed);
    duration = cfg.duration;
  }
