let run_classifier_backends ?(scale = 1.0) ?(seed = 52_001) fmt =
  let n = 1000 in
  let windows = Stdlib.max 10 (int_of_float (40.0 *. scale)) in
  (* One shared trace collection (skipped when every backend replays from
     the journal); every backend then scores the same immutable traces
     independently.  Each point payload carries [r_hat] so the table
     title survives a full replay. *)
  let traces_ref = ref None in
  let prepare () =
    traces_ref :=
      Some
        (Workload.collect_pair ~base:{ System.default_config with System.seed }
           ~piats:(n * windows))
  in
  let get_traces () =
    match !traces_ref with
    | Some t -> t
    | None ->
        raise
          (Sweep.Sweep_internal_error
             "classifier-backends: prepare did not collect traces")
  in
  let single backend feature =
    let classes = Workload.classes (get_traces ()) in
    let named_features =
      Array.map
        (fun (name, trace) ->
          ( name,
            Adversary.Dataset.features_of_trace feature
              ~reference:Calibration.timer_mean ~sample_size:n trace ))
        classes
    in
    (Adversary.Detection.estimate_on_features ~backend ~feature ~sample_size:n
       ~named_features ())
      .Adversary.Detection.detection_rate
  in
  let entropy =
    Adversary.Feature.Sample_entropy
      { bin_width = Adversary.Feature.default_entropy_bin_width }
  in
  let spectral kind =
    (Adversary.Spectral.estimate ~kind ~sample_size:n
       ~classes:(Workload.classes (get_traces ())) ())
      .Adversary.Detection.detection_rate
  in
  let backends =
    [
      ("kde/variance", fun () -> single `Kde Adversary.Feature.Sample_variance);
      ("kde/entropy", fun () -> single `Kde entropy);
      ( "gaussian/variance",
        fun () -> single `Gaussian Adversary.Feature.Sample_variance );
      ("gaussian/entropy", fun () -> single `Gaussian entropy);
      ( "joint kde (var+entropy)",
        fun () ->
          Adversary.Joint.estimate
            ~features:[ Adversary.Feature.Sample_variance; entropy ]
            ~reference:Calibration.timer_mean ~sample_size:n
            ~classes:(Workload.classes (get_traces ())) () );
      ("spectral entropy", fun () -> spectral Adversary.Spectral.Spectral_entropy);
      ("spectral power", fun () -> spectral Adversary.Spectral.Spectral_power);
    ]
  in
  let digest =
    Sweep.digest_of_string
      (Printf.sprintf "ablations.backends|seed=%d|n=%d|w=%d|points=%s" seed n
         windows
         (String.concat "," (List.map fst backends)))
  in
  let cells =
    Sweep.mapi ~sweep:"ablations.backends" ~digest ~seed ~prepare
      ~task:(fun ~attempt:_ _i (name, score) ->
        (name, score (), (get_traces ()).Workload.r_hat))
      backends
  in
  let r_hat =
    match Sweep.ok_values cells with (_, _, r) :: _ -> r | [] -> Float.nan
  in
  Sweep.render
    ~title:
      (Printf.sprintf
         "Ablation: adversary backends on the same CIT traces (n=%d, \
          r_hat=%.3f)"
         n r_hat)
    ~columns:[ "adversary"; "detection rate" ] ~key:fst
    ~rows:(fun (name, v, _) -> [ [ name; Printf.sprintf "%.3f" v ] ])
    backends cells fmt;
  List.map (fun (name, v, _) -> (name, v)) (Sweep.ok_values cells)

let scheme_sweep ~sweep ~title ~seed ~n ~piats schemes fmt =
  let digest =
    Sweep.digest_of_string
      (Printf.sprintf "%s|seed=%d|n=%d|piats=%d|points=%s" sweep seed n piats
         (String.concat "," (List.map fst schemes)))
  in
  let cells =
    Sweep.mapi ~sweep ~digest ~seed
      ~task:(fun ~attempt i (name, run) ->
        let traces =
          Workload.run_pair
            ~base:
              {
                System.default_config with
                System.seed =
                  Sweep.attempt_seed ~seed:(seed + (100 * i)) ~attempt;
              }
            ~run:(fun cfg -> run cfg ~piats)
        in
        let worst =
          List.fold_left
            (fun acc (r : Adversary.Detection.result) ->
              Float.max acc r.Adversary.Detection.detection_rate)
            0.5
            (Adversary.Detection.estimate_features
               ~features:Adversary.Feature.standard_set
               ~reference:Calibration.timer_mean ~sample_size:n
               ~classes:(Workload.classes traces) ())
        in
        ( name,
          worst,
          0.5
          *. (traces.Workload.low.System.overhead
             +. traces.Workload.high.System.overhead) ))
      schemes
  in
  Sweep.render ~title
    ~columns:[ "scheme"; "worst-feature detection"; "dummy overhead" ]
    ~key:fst
    ~rows:(fun (name, worst, overhead) ->
      [ [ name; Printf.sprintf "%.3f" worst; Printf.sprintf "%.3f" overhead ] ])
    schemes cells fmt;
  Sweep.ok_values cells

let run_mix_vs_padding ?(scale = 1.0) ?(seed = 52_002) fmt =
  let n = 200 in
  let windows = Stdlib.max 10 (int_of_float (30.0 *. scale)) in
  scheme_sweep ~sweep:"ablations.mix"
    ~title:"Ablation: mixing vs padding as rate-hiding (n=200)" ~seed ~n
    ~piats:(n * windows)
    [
      ("CIT", System.run);
      ( "VIT(20us)",
        fun cfg ->
          System.run
            {
              cfg with
              System.timer =
                Padding.Timer.Normal
                  { mean = Calibration.timer_mean; sigma = 20e-6 };
            } );
      ("mix(K=8,500ms)", fun cfg -> System.run_mix cfg);
    ]
    fmt

let run_bounds_table fmt =
  let table =
    Table.create
      ~title:
        "Analytics: Theorem 2 vs exact gamma law vs Bhattacharyya bracket \
         (sample variance)"
      ~columns:
        [ "r"; "n"; "theorem 2"; "exact"; "bracket lo"; "bracket hi" ]
  in
  List.iter
    (fun r ->
      List.iter
        (fun n ->
          let theorem = Analytical.Theorems.v_variance ~r ~n in
          let exact =
            Analytical.Bayes_numeric.sample_variance_exact ~sigma2_l:1.0
              ~sigma2_h:r ~n
          in
          let bracket =
            Analytical.Bounds.sample_variance_bracket ~sigma2_l:1.0 ~sigma2_h:r
              ~n
          in
          Table.add_row table
            [
              Printf.sprintf "%.2f" r;
              string_of_int n;
              Printf.sprintf "%.4f" theorem;
              Printf.sprintf "%.4f" exact;
              Printf.sprintf "%.4f" bracket.Analytical.Bounds.lower;
              Printf.sprintf "%.4f" bracket.Analytical.Bounds.upper;
            ])
        [ 30; 100; 300; 1000 ])
    [ 1.2; 1.5; 2.0; 3.0 ];
  Table.print table fmt

let run_roc ?(scale = 1.0) ?(seed = 52_005) fmt =
  let windows = Stdlib.max 20 (int_of_float (60.0 *. scale)) in
  let max_n = 400 in
  let traces =
    Workload.collect_pair ~base:{ System.default_config with System.seed }
      ~piats:(max_n * windows)
  in
  let classes = Workload.classes traces in
  let rows =
    List.concat_map
      (fun n ->
        List.map
          (fun feature ->
            let features_of (_, trace) =
              Adversary.Dataset.features_of_trace feature
                ~reference:Calibration.timer_mean ~sample_size:n trace
            in
            let negatives = features_of classes.(0) in
            let positives = features_of classes.(1) in
            let auc = Adversary.Roc.auc ~negatives ~positives in
            let _, best = Adversary.Roc.best_accuracy ~negatives ~positives in
            (n, Adversary.Feature.name feature, auc, best))
          Adversary.Feature.standard_set)
      [ 50; 400 ]
  in
  let table =
    Table.create
      ~title:"Ablation: ROC view of the CIT leak (AUC is threshold-free)"
      ~columns:[ "n"; "feature"; "AUC"; "best accuracy" ]
  in
  List.iter
    (fun (n, name, auc, best) ->
      Table.add_row table
        [
          string_of_int n; name;
          Printf.sprintf "%.3f" auc;
          Printf.sprintf "%.3f" best;
        ])
    rows;
  Table.print table fmt;
  rows

let run_size_padding ?(seed = 52_004) fmt =
  let packets = 4_000 in
  (* Two application mixes with the same Poisson timing: "interactive"
     (small, narrow) vs "bulk" (bimodal with MTU-sized segments). *)
  let interactive rng = 80 + Prng.Rng.int rng ~bound:120 in
  let bulk rng =
    if Prng.Sampler.bernoulli rng ~p:0.5 then 1460
    else 200 + Prng.Rng.int rng ~bound:100
  in
  let capture ~size_of ~padded ~seed =
    let sim = Desim.Sim.create () in
    let rng = Prng.Rng.create ~seed in
    let tap = Netsim.Tap.create sim ~dest:(fun _ -> ()) () in
    let entry =
      if padded then
        Padding.Size_padding.pad_port ~target:1500 ~dest:(Netsim.Tap.port tap)
      else Netsim.Tap.port tap
    in
    let src =
      Netsim.Traffic_gen.poisson_sized sim ~rng:(Prng.Rng.split rng)
        ~rate_pps:100.0 ~size_of ~kind:Netsim.Packet.Payload ~dest:entry ()
    in
    Desim.Sim.run_until sim ~time:(float_of_int packets /. 100.0 *. 1.1);
    Netsim.Traffic_gen.stop src;
    Netsim.Tap.sizes tap
  in
  let rows =
    List.concat_map
      (fun padded ->
        let label = if padded then "padded to 1500B" else "unpadded sizes" in
        (* The two application mixes have disjoint seeds — capture both
           concurrently. *)
        let interactive_trace, bulk_trace =
          Exec.Pool.both
            (fun () -> capture ~size_of:interactive ~padded ~seed)
            (fun () -> capture ~size_of:bulk ~padded ~seed:(seed + 1))
        in
        let classes =
          [| ("interactive", interactive_trace); ("bulk", bulk_trace) |]
        in
        List.map
          (fun kind ->
            let res =
              Adversary.Sizes.estimate ~kind ~window:50 ~classes ()
            in
            ( label,
              Adversary.Sizes.name kind,
              res.Adversary.Detection.detection_rate ))
          [ Adversary.Sizes.Mean_size; Adversary.Sizes.Size_entropy ])
      [ false; true ]
  in
  let table =
    Table.create
      ~title:
        "Ablation: the packet-size channel, with and without size padding \
         (window = 50 packets)"
      ~columns:[ "configuration"; "feature"; "detection rate" ]
  in
  List.iter
    (fun (config, feature, v) ->
      Table.add_row table [ config; feature; Printf.sprintf "%.3f" v ])
    rows;
  Table.print table fmt;
  rows

let run_qos_table ?(seed = 52_003) fmt =
  let payload_rate = Calibration.rate_high_pps in
  let timer_rates = [ 50.0; 80.0; 100.0; 200.0; 400.0 ] in
  let digest =
    Sweep.digest_of_string
      (Printf.sprintf "ablations.qos|seed=%d|pps=%h|points=%s" seed payload_rate
         (String.concat "," (List.map (Printf.sprintf "%h") timer_rates)))
  in
  let cells =
    Sweep.mapi ~sweep:"ablations.qos" ~digest ~seed
      ~task:(fun ~attempt i timer_rate ->
        let timer_mean = 1.0 /. timer_rate in
        let analytic =
          Padding.Qos.mean_delay ~payload_rate_pps:payload_rate ~timer_mean
        in
        let res =
          System.run
            {
              System.default_config with
              System.seed = Sweep.attempt_seed ~seed:(seed + i) ~attempt;
              payload_rate_pps = payload_rate;
              timer = Padding.Timer.Constant timer_mean;
            }
            ~piats:20_000
        in
        (timer_rate, analytic, res.System.mean_payload_latency))
      timer_rates
  in
  Sweep.render
    ~title:
      (Printf.sprintf
         "QoS: payload delay vs timer rate (Poisson payload %.0f pps), \
          analytic M/D/1 vs simulation"
         payload_rate)
    ~columns:
      [ "timer (pps)"; "util"; "analytic delay (ms)"; "simulated (ms)";
        "overhead" ]
    ~key:(Printf.sprintf "%.0f")
    ~rows:(fun (rate, analytic, simulated) ->
      [
        [
          Printf.sprintf "%.0f" rate;
          Printf.sprintf "%.2f"
            (Padding.Qos.utilization ~payload_rate_pps:payload_rate
               ~timer_mean:(1.0 /. rate));
          Printf.sprintf "%.2f" (analytic *. 1e3);
          Printf.sprintf "%.2f" (simulated *. 1e3);
          Printf.sprintf "%.2f"
            (Padding.Qos.overhead ~payload_rate_pps:payload_rate
               ~timer_mean:(1.0 /. rate));
        ];
      ])
    timer_rates cells fmt;
  Sweep.ok_values cells
