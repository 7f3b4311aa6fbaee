type point = {
  utilization : float;
  measured_utilization : float;
  sigma_low : float;
  r_hat : float;
  scores : Workload.scored list;
}

type t = { sample_size : int; points : point list }

let default_utilizations =
  [ 0.05; 0.10; 0.15; 0.20; 0.25; 0.30; 0.35; 0.40; 0.45; 0.50 ]

let hop_for_utilization ~utilization ~burst =
  if utilization < 0.0 || utilization >= 1.0 then
    invalid_arg "Fig6.hop_for_utilization: utilization out of [0,1)";
  let cross =
    if utilization = 0.0 then None
    else
      Some
        {
          Netsim.Topology.rate_pps =
            utilization *. Calibration.lab_bandwidth_bps
            /. (8.0 *. float_of_int Calibration.cross_packet_size);
          size_bytes = Calibration.cross_packet_size;
          burst;
        }
  in
  {
    Netsim.Topology.bandwidth_bps = Calibration.lab_bandwidth_bps;
    propagation = 0.0;
    queue_limit = None;
    cross;
  }

let run ?(scale = 1.0) ?(seed = 42_005) ?(sample_size = 1000)
    ?(utilizations = default_utilizations) ?half_width ?csv_dir fmt =
  if sample_size < 2 then invalid_arg "Fig6.run: sample_size < 2";
  let windows = Stdlib.max 6 (int_of_float (40.0 *. scale)) in
  let features = Adversary.Feature.standard_set in
  let plan =
    Workload.window_plan ~sample_size ~max_windows:windows ?half_width ()
  in
  let digest =
    Sweep.digest_of_string
      (Printf.sprintf
         "fig6|seed=%d|n=%d|w=%d|stride=%d|wps=%d|minw=%d|hw=%s|points=%s"
         seed sample_size windows plan.Workload.stride
         plan.Workload.windows_per_shard plan.Workload.min_windows
         (match plan.Workload.half_width with
         | None -> "-"
         | Some h -> Printf.sprintf "%h" h)
         (String.concat "," (List.map (Printf.sprintf "%h") utilizations)))
  in
  (* Sweep points are seeded by index, hence independent: fan them out. *)
  let cells =
    Sweep.mapi ~sweep:"fig6" ~digest ~seed
      ~task:(fun ~attempt i utilization ->
        let hop = hop_for_utilization ~utilization ~burst:`Poisson in
        let base =
          {
            System.default_config with
            System.seed =
              Sweep.attempt_seed ~seed:(seed + (100 * i)) ~attempt;
            hops = [| hop |];
            tap_position = 1;
          }
        in
        let pair, scores = Workload.collect_windowed ~base ~plan ~features in
        (* The padded stream itself adds ~0.1% at these speeds; measured
           utilization reports the cross share actually offered. *)
        let measured_utilization =
          match hop.Netsim.Topology.cross with
          | None -> 0.0
          | Some c ->
              c.Netsim.Topology.rate_pps
              *. (8.0 *. float_of_int c.Netsim.Topology.size_bytes)
              /. Calibration.lab_bandwidth_bps
        in
        {
          utilization;
          measured_utilization;
          sigma_low = sqrt pair.Workload.piat_var_low;
          r_hat = pair.Workload.ratio_hat;
          scores;
        })
      utilizations
  in
  Sweep.render ~csv:(csv_dir, "fig6.csv")
    ~title:
      (Printf.sprintf
         "Fig 6: CIT + cross traffic (lab), detection vs link utilization \
          (sample size %d)"
         sample_size)
    ~columns:
      [ "util"; "sigma_l(us)"; "r_hat"; "feature"; "empirical"; "95% CI"; "theory" ]
    ~key:(Printf.sprintf "%.2f")
    ~rows:(fun p ->
      List.map
        (fun (s : Workload.scored) ->
          [
            Printf.sprintf "%.2f" p.utilization;
            Printf.sprintf "%.2f" (p.sigma_low *. 1e6);
            Printf.sprintf "%.4f" p.r_hat;
            Adversary.Feature.name s.feature;
            Printf.sprintf "%.3f" s.empirical;
            Workload.pp_ci s;
            Printf.sprintf "%.3f" s.theory;
          ])
        p.scores)
    utilizations cells fmt;
  { sample_size; points = Sweep.ok_values cells }
