(* Adversary: feature extraction on known inputs, dataset slicing,
   KDE-Bayes classifier behaviour, detection-rate estimation, counting. *)

let close ?(tol = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > tol *. Float.max 1.0 (Float.abs expected)
  then Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* --- Feature --- *)

let test_feature_mean () =
  close "mean" 2.0
    (Adversary.Feature.extract Adversary.Feature.Sample_mean ~reference:0.0
       [| 1.0; 2.0; 3.0 |])

let test_feature_variance () =
  close "variance" 1.0
    (Adversary.Feature.extract Adversary.Feature.Sample_variance ~reference:0.0
       [| 1.0; 2.0; 3.0 |])

let test_feature_entropy_known () =
  (* Four points in four distinct unit bins: H = ln 4. *)
  close "entropy" (log 4.0)
    (Adversary.Feature.extract
       (Adversary.Feature.Sample_entropy { bin_width = 1.0 })
       ~reference:0.0
       [| 0.5; 1.5; 2.5; 3.5 |])

let test_feature_entropy_concentrated () =
  close "one bin -> 0" 0.0
    (Adversary.Feature.extract
       (Adversary.Feature.Sample_entropy { bin_width = 1.0 })
       ~reference:0.0
       [| 0.1; 0.2; 0.3 |])

let test_feature_min_sizes () =
  Alcotest.(check int) "mean 1" 1
    (Adversary.Feature.min_sample_size Adversary.Feature.Sample_mean);
  Alcotest.check_raises "variance of singleton"
    (Invalid_argument "Feature.extract: sample too small") (fun () ->
      ignore
        (Adversary.Feature.extract Adversary.Feature.Sample_variance
           ~reference:0.0 [| 1.0 |]))

let test_feature_names () =
  Alcotest.(check (list string)) "names" [ "mean"; "variance"; "entropy" ]
    (List.map Adversary.Feature.name Adversary.Feature.standard_set)

(* --- Dataset --- *)

let test_slice_windows () =
  let windows = Adversary.Dataset.slice (Array.init 10 float_of_int) ~sample_size:3 in
  Alcotest.(check int) "3 full windows" 3 (Array.length windows);
  Alcotest.(check (array (float 0.0))) "first" [| 0.0; 1.0; 2.0 |] windows.(0);
  Alcotest.(check (array (float 0.0))) "last" [| 6.0; 7.0; 8.0 |] windows.(2)

let test_slice_remainder_discarded () =
  let windows = Adversary.Dataset.slice [| 1.0; 2.0 |] ~sample_size:5 in
  Alcotest.(check int) "no partial windows" 0 (Array.length windows)

let test_features_of_trace () =
  let fs =
    Adversary.Dataset.features_of_trace Adversary.Feature.Sample_mean
      ~reference:0.0 ~sample_size:2
      [| 1.0; 3.0; 5.0; 7.0 |]
  in
  Alcotest.(check (array (float 1e-12))) "window means" [| 2.0; 6.0 |] fs

let test_split_alternating () =
  let even, odd = Adversary.Dataset.split_alternating [| 0.; 1.; 2.; 3.; 4. |] in
  Alcotest.(check (array (float 0.0))) "even" [| 0.; 2.; 4. |] even;
  Alcotest.(check (array (float 0.0))) "odd" [| 1.; 3. |] odd

(* --- Classifier --- *)

let gaussian n mu sigma seed =
  let rng = Prng.Rng.create ~seed in
  Array.init n (fun _ -> Prng.Sampler.normal rng ~mu ~sigma)

let test_classifier_separable () =
  let clf =
    Adversary.Classifier.train
      ~classes:[| ("lo", gaussian 200 0.0 0.5 141); ("hi", gaussian 200 10.0 0.5 142) |]
      ()
  in
  Alcotest.(check int) "low point" 0 (Adversary.Classifier.classify clf 0.2);
  Alcotest.(check int) "high point" 1 (Adversary.Classifier.classify clf 9.5)

let test_classifier_prior_shifts_decision () =
  (* With a lopsided prior the midpoint flips to the heavy class. *)
  let classes = [| ("a", gaussian 400 0.0 1.0 145); ("b", gaussian 400 2.0 1.0 146) |] in
  let balanced = Adversary.Classifier.train ~classes () in
  let skewed = Adversary.Classifier.train ~priors:[| 0.95; 0.05 |] ~classes () in
  let midpoint = 1.0 in
  Alcotest.(check int) "skewed prior favors class 0" 0
    (Adversary.Classifier.classify skewed midpoint);
  ignore (Adversary.Classifier.classify balanced midpoint)

let test_classifier_accuracy_perfect_and_chance () =
  let clf =
    Adversary.Classifier.train
      ~classes:[| ("a", gaussian 300 0.0 0.3 147); ("b", gaussian 300 10.0 0.3 148) |]
      ()
  in
  let acc_perfect =
    Adversary.Classifier.accuracy clf
      [| (0, gaussian 100 0.0 0.3 149); (1, gaussian 100 10.0 0.3 150) |]
  in
  close ~tol:0.02 "separable -> ~1.0" 1.0 acc_perfect;
  (* Same distribution in both classes -> chance. *)
  let clf2 =
    Adversary.Classifier.train
      ~classes:[| ("a", gaussian 300 0.0 1.0 151); ("b", gaussian 300 0.0 1.0 152) |]
      ()
  in
  let acc_chance =
    Adversary.Classifier.accuracy clf2
      [| (0, gaussian 200 0.0 1.0 153); (1, gaussian 200 0.0 1.0 154) |]
  in
  Alcotest.(check bool) "indistinguishable -> ~0.5" true
    (acc_chance > 0.35 && acc_chance < 0.65)

let test_classifier_threshold_between_means () =
  let clf =
    Adversary.Classifier.train
      ~classes:[| ("a", gaussian 300 0.0 1.0 155); ("b", gaussian 300 4.0 1.0 156) |]
      ()
  in
  match Adversary.Classifier.threshold_two_class clf with
  | Some d -> Alcotest.(check bool) "threshold near midpoint" true (d > 1.0 && d < 3.0)
  | None -> Alcotest.fail "expected a threshold"

let test_classifier_multiclass () =
  let clf =
    Adversary.Classifier.train
      ~classes:
        [|
          ("a", gaussian 200 0.0 0.5 157);
          ("b", gaussian 200 5.0 0.5 158);
          ("c", gaussian 200 10.0 0.5 159);
        |]
      ()
  in
  Alcotest.(check int) "middle class" 1 (Adversary.Classifier.classify clf 5.1);
  Alcotest.(check int) "m" 3 (Adversary.Classifier.num_classes clf);
  Alcotest.check_raises "threshold needs binary"
    (Invalid_argument "Classifier.threshold_two_class: not a binary classifier")
    (fun () -> ignore (Adversary.Classifier.threshold_two_class clf))

let test_classifier_invalid () =
  Alcotest.check_raises "one class"
    (Invalid_argument "Classifier.train: need >= 2 classes") (fun () ->
      ignore (Adversary.Classifier.train ~classes:[| ("a", [| 1.0 |]) |] ()));
  Alcotest.check_raises "empty class"
    (Invalid_argument "Classifier.train: empty training set") (fun () ->
      ignore
        (Adversary.Classifier.train ~classes:[| ("a", [||]); ("b", [| 1.0 |]) |] ()));
  Alcotest.check_raises "bad priors"
    (Invalid_argument "Classifier.train: priors length mismatch") (fun () ->
      ignore
        (Adversary.Classifier.train ~priors:[| 1.0 |]
           ~classes:[| ("a", [| 1.0 |]); ("b", [| 2.0 |]) |]
           ()))

(* --- Detection --- *)

let test_detection_separable_traces () =
  (* Two synthetic PIAT traces with very different variances. *)
  let rng = Prng.Rng.create ~seed:160 in
  let trace sigma =
    Array.init 4000 (fun _ -> Prng.Sampler.normal rng ~mu:0.01 ~sigma)
  in
  let res =
    Adversary.Detection.estimate ~feature:Adversary.Feature.Sample_variance
      ~reference:0.01 ~sample_size:100
      ~classes:[| ("low", trace 1e-5); ("high", trace 5e-5) |]
      ()
  in
  Alcotest.(check bool) "high detection" true
    (res.Adversary.Detection.detection_rate > 0.95);
  Alcotest.(check bool) "threshold exists" true
    (res.Adversary.Detection.threshold <> None);
  Alcotest.(check int) "train size recorded" 20
    res.Adversary.Detection.n_train_per_class.(0)

let test_detection_identical_traces_chance () =
  let rng = Prng.Rng.create ~seed:161 in
  let trace () =
    Array.init 4000 (fun _ -> Prng.Sampler.normal rng ~mu:0.01 ~sigma:1e-5)
  in
  let res =
    Adversary.Detection.estimate ~feature:Adversary.Feature.Sample_variance
      ~reference:0.01 ~sample_size:100
      ~classes:[| ("low", trace ()); ("high", trace ()) |]
      ()
  in
  Alcotest.(check bool) "chance-level" true
    (res.Adversary.Detection.detection_rate > 0.25
    && res.Adversary.Detection.detection_rate < 0.75)

let test_detection_too_few_windows () =
  Alcotest.check_raises "too few"
    (Invalid_argument "Detection.estimate: fewer than 4 feature values in a class")
    (fun () ->
      ignore
        (Adversary.Detection.estimate ~feature:Adversary.Feature.Sample_mean
           ~reference:0.0 ~sample_size:10
           ~classes:[| ("a", Array.make 30 1.0); ("b", Array.make 100 1.0) |]
           ()))

let test_estimate_features_consistent () =
  let rng = Prng.Rng.create ~seed:162 in
  let trace sigma =
    Array.init 2000 (fun _ -> Prng.Sampler.normal rng ~mu:0.01 ~sigma)
  in
  let classes = [| ("low", trace 1e-5); ("high", trace 3e-5) |] in
  let multi =
    Adversary.Detection.estimate_features
      ~features:Adversary.Feature.standard_set ~reference:0.01 ~sample_size:50
      ~classes ()
  in
  Alcotest.(check int) "three results" 3 (List.length multi);
  let single =
    Adversary.Detection.estimate ~feature:Adversary.Feature.Sample_variance
      ~reference:0.01 ~sample_size:50 ~classes ()
  in
  let multi_var =
    List.find
      (fun (r : Adversary.Detection.result) ->
        r.Adversary.Detection.feature = Adversary.Feature.Sample_variance)
      multi
  in
  close ~tol:1e-9 "same answer both paths"
    single.Adversary.Detection.detection_rate
    multi_var.Adversary.Detection.detection_rate

(* --- Counting --- *)

let test_counting_windows () =
  let ts = [| 0.0; 0.1; 0.2; 1.1; 1.2; 2.5 |] in
  let counts = Adversary.Counting.counts_per_window ts ~window:1.0 in
  Alcotest.(check (array (float 0.0))) "counts" [| 3.0; 2.0 |] counts

let test_counting_empty () =
  Alcotest.(check (array (float 0.0))) "empty" [||]
    (Adversary.Counting.counts_per_window [||] ~window:1.0)

let test_counting_detects_rates () =
  (* Two Poisson timestamp streams at 10 vs 40 pps: trivially separable. *)
  let stream rate seed =
    let rng = Prng.Rng.create ~seed in
    let t = ref 0.0 in
    Array.init 4000 (fun _ ->
        t := !t +. Prng.Sampler.exponential rng ~rate;
        !t)
  in
  let res =
    Adversary.Counting.estimate ~window:1.0
      ~classes:[| ("low", stream 10.0 163); ("high", stream 40.0 164) |]
      ()
  in
  Alcotest.(check bool) "counting detects unpadded rates" true
    (res.Adversary.Detection.detection_rate > 0.95)

let prop_slice_total_length =
  QCheck.Test.make ~name:"slice preserves prefix content" ~count:100
    QCheck.(
      pair
        (array_of_size Gen.(int_range 0 200) (float_bound_exclusive 10.0))
        (int_range 1 20))
    (fun (xs, k) ->
      let windows = Adversary.Dataset.slice xs ~sample_size:k in
      let flat = Array.concat (Array.to_list windows) in
      let m = Array.length flat in
      m = Array.length xs / k * k
      && Array.for_all Fun.id (Array.init m (fun i -> flat.(i) = xs.(i))))

let suite =
  [
    Alcotest.test_case "feature mean" `Quick test_feature_mean;
    Alcotest.test_case "feature variance" `Quick test_feature_variance;
    Alcotest.test_case "feature entropy known" `Quick test_feature_entropy_known;
    Alcotest.test_case "feature entropy concentrated" `Quick test_feature_entropy_concentrated;
    Alcotest.test_case "feature min sizes" `Quick test_feature_min_sizes;
    Alcotest.test_case "feature names" `Quick test_feature_names;
    Alcotest.test_case "slice windows" `Quick test_slice_windows;
    Alcotest.test_case "slice remainder" `Quick test_slice_remainder_discarded;
    Alcotest.test_case "features_of_trace" `Quick test_features_of_trace;
    Alcotest.test_case "split alternating" `Quick test_split_alternating;
    Alcotest.test_case "classifier separable" `Quick test_classifier_separable;
    Alcotest.test_case "prior shifts decision" `Quick test_classifier_prior_shifts_decision;
    Alcotest.test_case "accuracy perfect/chance" `Quick test_classifier_accuracy_perfect_and_chance;
    Alcotest.test_case "threshold between means" `Quick test_classifier_threshold_between_means;
    Alcotest.test_case "multiclass" `Quick test_classifier_multiclass;
    Alcotest.test_case "classifier invalid" `Quick test_classifier_invalid;
    Alcotest.test_case "detection separable" `Quick test_detection_separable_traces;
    Alcotest.test_case "detection chance level" `Quick test_detection_identical_traces_chance;
    Alcotest.test_case "detection too few windows" `Quick test_detection_too_few_windows;
    Alcotest.test_case "estimate_features consistent" `Quick test_estimate_features_consistent;
    Alcotest.test_case "counting windows" `Quick test_counting_windows;
    Alcotest.test_case "counting empty" `Quick test_counting_empty;
    Alcotest.test_case "counting detects rates" `Quick test_counting_detects_rates;
    QCheck_alcotest.to_alcotest prop_slice_total_length;
  ]
