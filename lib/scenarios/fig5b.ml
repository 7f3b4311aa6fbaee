type point = {
  sigma_t : float;
  r : float;
  n_variance : float;
  n_entropy : float;
}

let target = 0.99

let sigma_ts = [ 1e-6; 2e-6; 5e-6; 1e-5; 2e-5; 5e-5; 1e-4; 2e-4; 5e-4; 1e-3 ]

let run ?(seed = 42_004) ?csv_dir fmt =
  let calibration = Calibration.measure_gateway_sigmas ~seed:(seed + 13) () in
  let points =
    List.map
      (fun sigma_t ->
        let r =
          Analytical.Ratio.r
            (Analytical.Ratio.make ~sigma_t
               ~sigma_gw_low:calibration.Calibration.sigma_low
               ~sigma_gw_high:calibration.Calibration.sigma_high ())
        in
        {
          sigma_t;
          r;
          n_variance = Analytical.Theorems.n_for_detection_variance ~r ~p:target;
          n_entropy = Analytical.Theorems.n_for_detection_entropy ~r ~p:target;
        })
      sigma_ts
  in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Fig 5(b): theoretical sample size for %.0f%% detection vs sigma_T"
           (target *. 100.0))
      ~columns:[ "sigma_T(us)"; "r"; "n (variance)"; "n (entropy)" ]
  in
  List.iter
    (fun p ->
      Table.add_row table
        [
          Printf.sprintf "%.1f" (p.sigma_t *. 1e6);
          Printf.sprintf "%.6f" p.r;
          Printf.sprintf "%.3e" p.n_variance;
          Printf.sprintf "%.3e" p.n_entropy;
        ])
    points;
  Table.print ~csv:(csv_dir, "fig5b.csv") table fmt;
  points
