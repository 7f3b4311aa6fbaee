(* Fleet-scale sweep: per-flow detection-rate distributions over a
   mux'd gateway fleet.

   Each sweep point simulates a fleet of [flows] users behind [gateways]
   padded gateways (the unwrapped fleet library's [Mux]; this module is
   the Scenarios.Fleet driver on top of it), then estimates the
   adversary's detection rate per probe flow and reports the
   DISTRIBUTION across flows — quantiles plus a pooled Wilson interval —
   instead of the single v every single-flow figure prints.  A fleet
   operator cares about the tail ("how exposed is my worst-protected
   flow"), not the average.

   Probe flows are a deterministic evenly-spaced sample of the flow-id
   space (covering every rate class proportionally); each probe runs the
   standard windowed two-class estimate at the calibration parameters
   with a flow-derived seed, so probe results are independent of
   sharding, of --jobs and of every other probe. *)

type load = Flat | Diurnal
(* [Diurnal] modulates the fleet's aggregate load with the canonical
   activity curve (min 4 AM, max 16:00), one 24 h day compressed into
   the mux duration. *)

let load_label = function Flat -> "flat" | Diurnal -> "diurnal"

let modulation_of_load ~duration = function
  | Flat -> None
  | Diurnal ->
      Some (fun t -> Diurnal.activity ~hour:(24.0 *. t /. duration))

let calibration_mix =
  (* talint: allow R001 — read-only calibration mixture, never written *)
  [|
    {
      Mux.label = Calibration.label_low;
      rate_pps = Calibration.rate_low_pps;
      fraction = 0.5;
    };
    {
      Mux.label = Calibration.label_high;
      rate_pps = Calibration.rate_high_pps;
      fraction = 0.5;
    };
  |]

type point = {
  flows : int;
  gateways : int;
  probes : int;
  arrivals : int;
  active_flows : int;
  overhead : float;
  delivered_frac : float;
  mean_latency : float;
  events_processed : int;
  vs : float array;  (** per-probe detection rates, probe order *)
  v_mean : float;
  v_p10 : float;
  v_p25 : float;
  v_p50 : float;
  v_p75 : float;
  v_p90 : float;
  successes : int;
  trials : int;
  wilson : Stats.Confidence.interval;
}

(* Evenly spaced probe flow ids (range midpoints), covering each
   contiguous class range proportionally to its fraction. *)
let probe_flows ~flows ~probes =
  let probes = Stdlib.min probes flows in
  Array.init probes (fun i -> ((2 * i) + 1) * flows / (2 * probes))

let evaluate ?(sample_size = 100) ?(max_windows = 16) ?(load = Flat)
    ?(mix = calibration_mix) ~seed ~flows ~gateways ~probes ~duration () =
  if probes < 1 then invalid_arg "Fleet.evaluate: probes < 1";
  let cfg =
    {
      Mux.seed;
      flows;
      gateways;
      classes = mix;
      timer = Padding.Timer.Constant Calibration.timer_mean;
      jitter = Calibration.default_jitter;
      packet_size = Calibration.packet_size;
      duration;
      modulation = modulation_of_load ~duration load;
    }
  in
  Mux.validate cfg;
  let mux =
    Mux.run
      ~env_for:(fun _g ->
        let a = Arena.get () in
        { Mux.sim = a.Arena.sim; gw_buffers = Some a.Arena.gw })
      cfg
  in
  (* Per-flow detection at matched single-flow parameters: each probe is
     the standard windowed low/high estimate under a flow-derived seed.
     The probe-seed root is displaced from the raw sweep seed so probe
     streams never collide with the mux's shard streams. *)
  let probe_root = Prng.Rng.mix_seed seed 999_983 in
  let plan = Workload.window_plan ~sample_size ~max_windows () in
  let probe_ids = probe_flows ~flows ~probes in
  let scoreds =
    Exec.Pool.parallel_map
      (fun flow ->
        let base =
          { System.default_config with
            seed = Prng.Rng.mix_seed probe_root flow }
        in
        let _pair, scored =
          Workload.collect_windowed ~base ~plan
            ~features:[ Adversary.Feature.Sample_variance ]
        in
        match scored with
        | s :: _ -> s
        | [] -> raise (Sweep.Sweep_internal_error "fleet: no scored feature"))
      (Array.to_list probe_ids)
  in
  let vs =
    Array.of_list (List.map (fun s -> s.Workload.empirical) scoreds)
  in
  let successes =
    List.fold_left (fun a s -> a + s.Workload.successes) 0 scoreds
  in
  let trials = List.fold_left (fun a s -> a + s.Workload.n_test) 0 scoreds in
  let q p = Stats.Descriptive.quantile vs p in
  let mean =
    Array.fold_left ( +. ) 0.0 vs /. float_of_int (Array.length vs)
  in
  {
    flows;
    gateways;
    probes = Array.length probe_ids;
    arrivals = mux.Mux.arrivals;
    active_flows = Flow_table.active mux.Mux.table ~since:0.0;
    overhead = mux.Mux.overhead;
    delivered_frac =
      (if mux.Mux.arrivals = 0 then 0.0
       else
         float_of_int mux.Mux.payload_delivered
         /. float_of_int mux.Mux.arrivals);
    mean_latency = mux.Mux.mean_payload_latency;
    events_processed = mux.Mux.events_processed;
    vs;
    v_mean = mean;
    v_p10 = q 0.10;
    v_p25 = q 0.25;
    v_p50 = q 0.50;
    v_p75 = q 0.75;
    v_p90 = q 0.90;
    successes;
    trials;
    wilson = Stats.Confidence.wilson ~successes ~trials ~confidence:0.95;
  }

let default_flow_counts = [ 1_000; 10_000; 100_000 ]

let run ?(scale = 1.0) ?(seed = 48_000) ?csv_dir
    ?(flow_counts = default_flow_counts) ?(gateways = 8) ?(probes = 12)
    ?(duration = 2.0) ?(load = Flat) fmt =
  if gateways < 1 then invalid_arg "Fleet.run: gateways < 1";
  if probes < 1 then invalid_arg "Fleet.run: probes < 1";
  List.iter
    (fun n -> if n < 1 then invalid_arg "Fleet.run: flow count < 1")
    flow_counts;
  let flow_counts =
    List.map
      (fun n -> Stdlib.max 1 (int_of_float (float_of_int n *. scale)))
      flow_counts
  in
  let sample_size = Stdlib.max 25 (int_of_float (200.0 *. scale)) in
  let max_windows = 16 in
  let mix_tag =
    String.concat ","
      (Array.to_list
         (Array.map
            (fun c ->
              Printf.sprintf "%s:%h:%h" c.Mux.label c.Mux.rate_pps
                c.Mux.fraction)
            calibration_mix))
  in
  let digest =
    Sweep.digest_of_string
      (Printf.sprintf
         "fleet|seed=%d|n=%d|windows=%d|gateways=%d|probes=%d|duration=%h|load=%s|mix=%s|points=%s"
         seed sample_size max_windows gateways probes duration
         (load_label load) mix_tag
         (String.concat "," (List.map string_of_int flow_counts)))
  in
  let cells =
    Sweep.mapi ~sweep:"fleet" ~digest ~seed
      ~task:(fun ~attempt i flows ->
        evaluate ~sample_size ~max_windows ~load
          ~seed:(Sweep.attempt_seed ~seed:(seed + i) ~attempt)
          ~flows
          ~gateways:(Stdlib.min gateways flows)
          ~probes ~duration ())
      flow_counts
  in
  Sweep.render ~csv:(csv_dir, "fleet.csv")
    ~title:
      (Printf.sprintf
         "Fleet: per-flow detection distribution vs fleet size (%s load, \
          %d probes, n=%d)"
         (load_label load) probes sample_size)
    ~columns:
      [
        "flows"; "gateways"; "arrivals"; "active"; "overhead"; "delivered";
        "latency(ms)"; "v_mean"; "v_p10"; "v_p25"; "v_p50"; "v_p75";
        "v_p90"; "wilson95";
      ]
    ~key:string_of_int
    ~rows:(fun p ->
      [
        [
          string_of_int p.flows;
          string_of_int p.gateways;
          string_of_int p.arrivals;
          string_of_int p.active_flows;
          Table.fcell p.overhead;
          Table.fcell p.delivered_frac;
          Printf.sprintf "%.3f" (p.mean_latency *. 1e3);
          Table.fcell p.v_mean;
          Table.fcell p.v_p10;
          Table.fcell p.v_p25;
          Table.fcell p.v_p50;
          Table.fcell p.v_p75;
          Table.fcell p.v_p90;
          Printf.sprintf "[%.3f, %.3f]" p.wilson.Stats.Confidence.lo
            p.wilson.Stats.Confidence.hi;
        ];
      ])
    flow_counts cells fmt;
  Sweep.ok_values cells
