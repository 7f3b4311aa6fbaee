type t = {
  rates : float list;
  sample_size : int;
  results : (Adversary.Feature.kind * float) list;
  confusion : int array array;
}

let rates = [ 10.0; 20.0; 30.0; 40.0 ]

let run ?(scale = 1.0) ?(seed = 42_007) ?(sample_size = 1000) ?csv_dir fmt =
  if sample_size < 2 then invalid_arg "Multirate.run: sample_size < 2";
  let windows = Stdlib.max 6 (int_of_float (30.0 *. scale)) in
  let digest =
    Sweep.digest_of_string
      (Printf.sprintf "multirate|seed=%d|n=%d|w=%d|points=%s" seed sample_size
         windows
         (String.concat "," (List.map (Printf.sprintf "%h") rates)))
  in
  (* One independent (seeded-by-index) trace collection per rate. *)
  let cells =
    Sweep.mapi ~sweep:"multirate" ~digest ~seed
      ~task:(fun ~attempt i rate ->
        let cfg =
          {
            System.default_config with
            System.seed =
              Sweep.attempt_seed ~seed:(seed + (100 * i)) ~attempt;
            payload_rate_pps = rate;
          }
        in
        let res = System.run cfg ~piats:(sample_size * windows) in
        (Printf.sprintf "%.0fpps" rate, res.System.piats))
      rates
  in
  (* m-ary detection degrades gracefully: failed rate classes become
     annotated rows and the classifier runs on the surviving classes
     (needs at least two). *)
  let classes = Array.of_list (Sweep.ok_values cells) in
  let m = Array.length classes in
  let results =
    if m < 2 then []
    else
      List.map
        (fun feature ->
          let r =
            Adversary.Detection.estimate ~feature
              ~reference:Calibration.timer_mean ~sample_size ~classes ()
          in
          (feature, r.Adversary.Detection.detection_rate))
        Adversary.Feature.standard_set
  in
  (* Confusion matrix for the variance feature. *)
  let confusion =
    if m < 2 then [||]
    else begin
      let feature = Adversary.Feature.Sample_variance in
      let featurized =
        Array.map
          (fun (name, trace) ->
            ( name,
              Adversary.Dataset.features_of_trace feature
                ~reference:Calibration.timer_mean ~sample_size trace ))
          classes
      in
      let split =
        Array.map (fun (_, fs) -> Adversary.Dataset.split_alternating fs) featurized
      in
      let clf =
        Adversary.Classifier.train
          ~classes:(Array.map2 (fun (n, _) (tr, _) -> (n, tr)) featurized split)
          ()
      in
      let confusion = Array.make_matrix m m 0 in
      Array.iteri
        (fun truth (_, test) ->
          Array.iter
            (fun x ->
              let d = Adversary.Classifier.classify clf x in
              confusion.(truth).(d) <- confusion.(truth).(d) + 1)
            test)
        split;
      confusion
    end
  in
  let floor_cell = Printf.sprintf "%.3f" (1.0 /. float_of_int m) in
  let rate_rows =
    List.map
      (fun (feature, v) ->
        [ Adversary.Feature.name feature; Printf.sprintf "%.3f" v; floor_cell ])
      results
  in
  (* Analytic m-ary oracle for the variance feature: exact Bayes rate from
     the measured per-class PIAT variances (defined when they are strictly
     increasing with the rate, which the jitter mechanism guarantees up to
     sampling noise). *)
  let oracle_rows =
    if m < 2 then []
    else
      let sigma2s =
        Array.map (fun (_, trace) -> Stats.Descriptive.variance trace) classes
      in
      let increasing =
        Array.for_all Fun.id
          (Array.init (m - 1) (fun i -> sigma2s.(i + 1) > sigma2s.(i)))
      in
      if not increasing then []
      else
        [
          [
            "variance (exact m-ary oracle)";
            Printf.sprintf "%.3f"
              (Analytical.Multirate.mary_variance_exact ~sigma2s ~n:sample_size);
            floor_cell;
          ];
        ]
  in
  (* The rows aggregate every class, so a failed class adds only its
     annotated row, after them. *)
  Sweep.render ~csv:(csv_dir, "multirate.csv")
    ~aggregate:(rate_rows @ oracle_rows)
    ~title:
      (Printf.sprintf "Multi-rate extension: %d-ary detection (n=%d)"
         (List.length rates) sample_size)
    ~columns:[ "feature"; "detection rate"; "floor (1/m)" ]
    ~key:(Printf.sprintf "class %.0fpps")
    ~rows:(fun _ -> [])
    rates cells fmt;
  (if m >= 2 then begin
     let ctable =
       Table.create ~title:"Confusion matrix (variance feature, rows = truth)"
         ~columns:
           ("truth\\decision" :: List.map (fun (n, _) -> n) (Array.to_list classes))
     in
     Array.iteri
       (fun i row ->
         let name, _ = classes.(i) in
         Table.add_row ctable
           (name :: Array.to_list (Array.map string_of_int row)))
       confusion;
     Table.print ctable fmt
   end);
  { rates; sample_size; results; confusion }
