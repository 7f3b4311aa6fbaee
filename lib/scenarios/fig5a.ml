type point = {
  sigma_t : float;
  r_hat : float;
  r_predicted : float;
  scores : Workload.scored list;
}

type t = {
  sample_size : int;
  calibration : Calibration.gateway_sigmas;
  points : point list;
}

let sigma_ts = [ 0.0; 1e-6; 2e-6; 5e-6; 10e-6; 20e-6; 50e-6; 100e-6 ]
let sample_size = 2000

let law ~sigma_t =
  if sigma_t = 0.0 then Padding.Timer.Constant Calibration.timer_mean
  else Padding.Timer.Normal { mean = Calibration.timer_mean; sigma = sigma_t }

let run ?(scale = 1.0) ?(seed = 42_003) ?csv_dir fmt =
  let windows = Stdlib.max 6 (int_of_float (24.0 *. scale)) in
  let calibration = Calibration.measure_gateway_sigmas ~seed:(seed + 13) () in
  let predicted sigma_t =
    Analytical.Ratio.r
      (Analytical.Ratio.make ~sigma_t
         ~sigma_gw_low:calibration.Calibration.sigma_low
         ~sigma_gw_high:calibration.Calibration.sigma_high ())
  in
  let features = Adversary.Feature.standard_set in
  let digest =
    Sweep.digest_of_string
      (Printf.sprintf "fig5a|seed=%d|n=%d|w=%d|points=%s" seed sample_size
         windows
         (String.concat "," (List.map (Printf.sprintf "%h") sigma_ts)))
  in
  (* Sweep points are seeded by index, hence independent: fan them out. *)
  let cells =
    Sweep.mapi ~sweep:"fig5a" ~digest ~seed
      ~task:(fun ~attempt i sigma_t ->
        let base =
          {
            System.default_config with
            System.seed =
              Sweep.attempt_seed ~seed:(seed + (100 * i)) ~attempt;
            timer = law ~sigma_t;
          }
        in
        let traces =
          Workload.collect_pair ~base ~piats:(sample_size * windows)
        in
        {
          sigma_t;
          r_hat = traces.Workload.r_hat;
          r_predicted = predicted sigma_t;
          scores = Workload.score traces ~features ~sample_size;
        })
      sigma_ts
  in
  let sigma_cell sigma_t = Printf.sprintf "%.1f" (sigma_t *. 1e6) in
  Sweep.render ~csv:(csv_dir, "fig5a.csv")
    ~title:
      (Printf.sprintf
         "Fig 5(a): VIT padding, detection rate vs sigma_T (sample size %d)"
         sample_size)
    ~columns:
      [ "sigma_T(us)"; "r_hat"; "r_pred"; "feature"; "empirical"; "95% CI"; "theory" ]
    ~key:sigma_cell
    ~rows:(fun p ->
      List.map
        (fun (s : Workload.scored) ->
          [
            sigma_cell p.sigma_t;
            Printf.sprintf "%.4f" p.r_hat;
            Printf.sprintf "%.4f" p.r_predicted;
            Adversary.Feature.name s.feature;
            Printf.sprintf "%.3f" s.empirical;
            Workload.pp_ci s;
            Printf.sprintf "%.3f" s.theory;
          ])
        p.scores)
    sigma_ts cells fmt;
  { sample_size; calibration; points = Sweep.ok_values cells }
