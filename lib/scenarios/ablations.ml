let features = Adversary.Feature.standard_set

let collect ~seed ~timer ~jitter ~hops ~tap_position ~piats =
  let base =
    {
      System.default_config with
      System.seed = seed;
      timer;
      jitter;
      hops;
      tap_position;
    }
  in
  Workload.collect_pair ~base ~piats

(* The table shape of the scored ablations: one row per feature of each
   point, keyed by the point. *)
let scored_columns key_col = [ key_col; "r_hat"; "feature"; "empirical"; "theory" ]

let scored_rows (key, r_hat, scores) =
  List.map
    (fun (s : Workload.scored) ->
      [
        key;
        Printf.sprintf "%.4f" r_hat;
        Adversary.Feature.name s.feature;
        Printf.sprintf "%.3f" s.empirical;
        Printf.sprintf "%.3f" s.theory;
      ])
    scores

let run_jitter_models ?(scale = 1.0) ?(seed = 51_001) fmt =
  let n = 1000 in
  let windows = Stdlib.max 8 (int_of_float (40.0 *. scale)) in
  let piats = n * windows in
  let cal = Calibration.measure_gateway_sigmas ~seed:(seed + 1) () in
  (* Match the parametric per-send jitter so the *PIAT* sigma matches the
     mechanistic measurement: PIAT variance = 2 x per-send variance. *)
  let models =
    [
      ("mechanistic", fun (_ : float) -> Calibration.default_jitter);
      ( "parametric",
        fun rate ->
          let sigma_piat =
            if rate <= Calibration.rate_low_pps then
              cal.Calibration.sigma_low
            else cal.Calibration.sigma_high
          in
          Padding.Jitter.parametric ~mu:3e-6 ~sigma:(sigma_piat /. sqrt 2.0) );
    ]
  in
  let digest =
    Sweep.digest_of_string
      (Printf.sprintf "ablations.jitter|seed=%d|n=%d|piats=%d|points=%s" seed n
         piats
         (String.concat "," (List.map fst models)))
  in
  let cells =
    Sweep.mapi ~sweep:"ablations.jitter" ~digest ~seed
      ~task:(fun ~attempt _i (name, jitter_of_rate) ->
        (* Parametric jitter depends on the class, so each class run takes
           the jitter of its own rate. *)
        let traces =
          Workload.run_pair
            ~base:
              {
                System.default_config with
                System.seed = Sweep.attempt_seed ~seed ~attempt;
              }
            ~run:(fun cfg ->
              System.run
                {
                  cfg with
                  System.jitter = jitter_of_rate cfg.System.payload_rate_pps;
                }
                ~piats)
        in
        (name, traces.Workload.r_hat, Workload.score traces ~features ~sample_size:n))
      models
  in
  Sweep.render
    ~title:"Ablation: mechanistic vs parametric gateway jitter (n=1000)"
    ~columns:(scored_columns "model") ~key:fst
    ~rows:scored_rows
    models cells fmt;
  Sweep.ok_values cells

let run_vit_laws ?(scale = 1.0) ?(seed = 51_002) fmt =
  let n = 2000 in
  let sigma_t = 10e-6 in
  let windows = Stdlib.max 6 (int_of_float (24.0 *. scale)) in
  let tau = Calibration.timer_mean in
  let laws =
    [
      ("normal", Padding.Timer.Normal { mean = tau; sigma = sigma_t });
      ( "uniform",
        Padding.Timer.Uniform { mean = tau; half_width = sigma_t *. sqrt 3.0 } );
      (* An exponential with mean = sigma_t rides on a constant offset to
         keep E[T] = tau: approximate with Normal? No — model it as the
         shifted-exponential via Uniform fallback is wrong; instead use an
         exponential *perturbation* implemented as a normal of matched
         sigma is cheating.  We use the plain exponential law with mean
         tau (sigma_T = tau) as the extreme-shape point. *)
      ("exp(mean=tau)", Padding.Timer.Exponential { mean = tau });
    ]
  in
  let digest =
    Sweep.digest_of_string
      (Printf.sprintf "ablations.vit_laws|seed=%d|n=%d|w=%d|sigma=%h|points=%s"
         seed n windows sigma_t
         (String.concat "," (List.map fst laws)))
  in
  let cells =
    Sweep.mapi ~sweep:"ablations.vit_laws" ~digest ~seed
      ~task:(fun ~attempt i (name, timer) ->
        let traces =
          collect
            ~seed:(Sweep.attempt_seed ~seed:(seed + (100 * i)) ~attempt)
            ~timer ~jitter:Calibration.default_jitter ~hops:[||]
            ~tap_position:0 ~piats:(n * windows)
        in
        (name, traces.Workload.r_hat, Workload.score traces ~features ~sample_size:n))
      laws
  in
  Sweep.render
    ~title:
      (Printf.sprintf
         "Ablation: VIT interval law shape (sigma_T=%.0fus for normal/uniform; n=%d)"
         (sigma_t *. 1e6) n)
    ~columns:(scored_columns "law") ~key:fst
    ~rows:scored_rows
    laws cells fmt;
  Sweep.ok_values cells

let run_entropy_bins ?(scale = 1.0) ?(seed = 51_003) fmt =
  let n = 1000 in
  let windows = Stdlib.max 8 (int_of_float (40.0 *. scale)) in
  let widths = [ 0.25e-6; 0.5e-6; 1e-6; 2e-6; 4e-6 ] in
  let digest =
    Sweep.digest_of_string
      (Printf.sprintf "ablations.entropy_bins|seed=%d|n=%d|w=%d|points=%s" seed
         n windows
         (String.concat "," (List.map (Printf.sprintf "%h") widths)))
  in
  (* One shared trace collection (skipped on a full journal replay);
     scoring is pure — the widths can be evaluated concurrently. *)
  let traces_ref = ref None in
  let prepare () =
    traces_ref :=
      Some
        (collect ~seed ~timer:(Padding.Timer.Constant Calibration.timer_mean)
           ~jitter:Calibration.default_jitter ~hops:[||] ~tap_position:0
           ~piats:(n * windows))
  in
  let cells =
    Sweep.mapi ~sweep:"ablations.entropy_bins" ~digest ~seed ~prepare
      ~task:(fun ~attempt:_ _i bin_width ->
        let traces =
          match !traces_ref with
          | Some t -> t
          | None ->
              raise
                (Sweep.Sweep_internal_error
                   "entropy-bins: prepare did not collect traces")
        in
        let scores =
          Workload.score traces
            ~features:[ Adversary.Feature.Sample_entropy { bin_width } ]
            ~sample_size:n
        in
        match scores with
        | [ s ] -> (bin_width, s.Workload.empirical)
        | _ ->
            raise
              (Sweep.Sweep_internal_error
                 "entropy-bins: expected exactly one score per width"))
      widths
  in
  let width_cell w = Printf.sprintf "%.2f" (w *. 1e6) in
  Sweep.render ~title:"Ablation: entropy-estimator bin width (CIT, n=1000)"
    ~columns:[ "bin width (us)"; "empirical detection" ]
    ~key:width_cell
    ~rows:(fun (w, v) -> [ [ width_cell w; Printf.sprintf "%.3f" v ] ])
    widths cells fmt;
  Sweep.ok_values cells

let run_tap_positions ?(scale = 1.0) ?(seed = 51_004) fmt =
  let n = 1000 in
  let windows = Stdlib.max 6 (int_of_float (24.0 *. scale)) in
  let utilization = 0.2 in
  let hops =
    Array.init 3 (fun _ ->
        Fig6.hop_for_utilization ~utilization ~burst:`Poisson)
  in
  let positions = [ 0; 1; 2; 3 ] in
  let digest =
    Sweep.digest_of_string
      (Printf.sprintf "ablations.tap_positions|seed=%d|n=%d|w=%d|util=%h|points=%s"
         seed n windows utilization
         (String.concat "," (List.map string_of_int positions)))
  in
  let cells =
    Sweep.mapi ~sweep:"ablations.tap_positions" ~digest ~seed
      ~task:(fun ~attempt _i tap_position ->
        let traces =
          collect
            ~seed:
              (Sweep.attempt_seed ~seed:(seed + (100 * tap_position)) ~attempt)
            ~timer:(Padding.Timer.Constant Calibration.timer_mean)
            ~jitter:Calibration.default_jitter ~hops ~tap_position
            ~piats:(n * windows)
        in
        ( tap_position,
          traces.Workload.r_hat,
          Workload.score traces ~features ~sample_size:n ))
      positions
  in
  Sweep.render
    ~title:
      (Printf.sprintf
         "Ablation: adversary position along a 3-router path (util %.2f, n=%d)"
         utilization n)
    ~columns:(scored_columns "tap hop") ~key:string_of_int
    ~rows:(fun (p, r_hat, scores) -> scored_rows (string_of_int p, r_hat, scores))
    positions cells fmt;
  Sweep.ok_values cells

let run_oracle_vs_kde ?(scale = 1.0) ?(seed = 51_005) fmt =
  let n = 200 in
  let windows = Stdlib.max 12 (int_of_float (80.0 *. scale)) in
  let digest =
    Sweep.digest_of_string
      (Printf.sprintf "ablations.oracle_vs_kde|seed=%d|n=%d|w=%d" seed n windows)
  in
  (* A single (but expensive) point: routing it through the sweep runner
     gives it the same checkpoint/containment story as the fan-outs. *)
  let cells =
    Sweep.mapi ~sweep:"ablations.oracle_vs_kde" ~digest ~seed
      ~task:(fun ~attempt _i () ->
        let traces =
          collect
            ~seed:(Sweep.attempt_seed ~seed ~attempt)
            ~timer:(Padding.Timer.Constant Calibration.timer_mean)
            ~jitter:Calibration.default_jitter ~hops:[||] ~tap_position:0
            ~piats:(n * windows)
        in
        let sigma2_l = traces.Workload.var_low
        and sigma2_h = traces.Workload.var_high in
        let scores = Workload.score traces ~features ~sample_size:n in
        let oracle = function
          | Adversary.Feature.Sample_mean ->
              Analytical.Bayes_numeric.sample_mean_exact
                ~sigma_l:(sqrt sigma2_l) ~sigma_h:(sqrt sigma2_h)
          | Adversary.Feature.Sample_variance ->
              Analytical.Bayes_numeric.sample_variance_exact ~sigma2_l
                ~sigma2_h ~n
          | Adversary.Feature.Sample_entropy _ ->
              Analytical.Bayes_numeric.sample_entropy_normal_approx ~sigma2_l
                ~sigma2_h ~n
        in
        List.map
          (fun (s : Workload.scored) ->
            (Adversary.Feature.name s.feature, s.empirical, oracle s.feature))
          scores)
      [ () ]
  in
  Sweep.render
    ~title:
      (Printf.sprintf
         "Ablation: KDE-Bayes adversary vs exact distributional oracle (n=%d)"
         n)
    ~columns:[ "feature"; "empirical (KDE)"; "oracle (exact law)" ]
    ~key:(fun () -> "all features")
    ~rows:
      (List.map (fun (name, emp, orc) ->
           [ name; Printf.sprintf "%.3f" emp; Printf.sprintf "%.3f" orc ]))
    [ () ] cells fmt;
  List.concat (Sweep.ok_values cells)

let run_adaptive_vs_cit ?(scale = 1.0) ?(seed = 51_006) fmt =
  let n = 500 in
  let windows = Stdlib.max 8 (int_of_float (24.0 *. scale)) in
  let timer law cfg = System.run { cfg with System.timer = law } in
  Ablations_ext.scheme_sweep ~sweep:"ablations.adaptive"
    ~title:"Ablation: padding scheme vs detectability and bandwidth cost (n=500)"
    ~seed ~n ~piats:(n * windows)
    [
      ("CIT", timer (Padding.Timer.Constant Calibration.timer_mean));
      ( "VIT(20us)",
        timer
          (Padding.Timer.Normal { mean = Calibration.timer_mean; sigma = 20e-6 })
      );
      ("adaptive", System.run_adaptive);
    ]
    fmt

(* The one ablation list, in print order; each table's seed is a fixed
   offset from [seed]. *)
let run_all ~scale ~seed fmt =
  ignore (run_jitter_models ~scale ~seed fmt);
  ignore (run_vit_laws ~scale ~seed:(seed + 1) fmt);
  ignore (run_entropy_bins ~scale ~seed:(seed + 2) fmt);
  ignore (run_tap_positions ~scale ~seed:(seed + 3) fmt);
  ignore (run_oracle_vs_kde ~scale ~seed:(seed + 4) fmt);
  ignore (run_adaptive_vs_cit ~scale ~seed:(seed + 5) fmt);
  ignore (Ablations_ext.run_classifier_backends ~scale ~seed:(seed + 6) fmt);
  ignore (Ablations_ext.run_mix_vs_padding ~scale ~seed:(seed + 7) fmt);
  ignore (Ablations_ext.run_size_padding ~seed:(seed + 9) fmt);
  ignore (Ablations_ext.run_roc ~scale ~seed:(seed + 10) fmt);
  Ablations_ext.run_bounds_table fmt;
  ignore (Ablations_ext.run_qos_table ~seed:(seed + 8) fmt)
