type result = {
  feature : Feature.kind;
  sample_size : int;
  detection_rate : float;
  n_train_per_class : int array;
  n_test_per_class : int array;
  n_correct_per_class : int array;
  threshold : float option;
}

let estimate_on_features ?priors ?(backend = `Kde) ~feature ~sample_size
    ~named_features () =
  let split = Array.map (fun (_, fs) -> Dataset.split_alternating fs) named_features in
  Array.iter
    (fun (train, test) ->
      if Array.length train < 2 || Array.length test < 2 then
        invalid_arg "Detection.estimate: fewer than 4 feature values in a class")
    split;
  let classes =
    Array.map2
      (fun (name, _) (train, _) -> (name, train))
      named_features split
  in
  let cases = Array.mapi (fun i (_, test) -> (i, test)) split in
  let detection_rate, n_correct_per_class, threshold =
    match backend with
    | `Kde ->
        let clf = Classifier.train ?priors ~classes () in
        let threshold =
          if Array.length named_features = 2 then
            Classifier.threshold_two_class clf
          else None
        in
        let correct, total = Classifier.correct_counts clf cases in
        (Classifier.weighted_accuracy clf ~correct ~total, correct, threshold)
    | `Gaussian ->
        let clf = Parametric.train ?priors ~classes () in
        let correct, total = Parametric.correct_counts clf cases in
        (Parametric.weighted_accuracy clf ~correct ~total, correct, None)
  in
  {
    feature;
    sample_size;
    detection_rate;
    n_train_per_class = Array.map (fun (train, _) -> Array.length train) split;
    n_test_per_class = Array.map (fun (_, test) -> Array.length test) split;
    n_correct_per_class;
    threshold;
  }

let estimate ?priors ~feature ~reference ~sample_size ~classes () =
  let named_features =
    Array.map
      (fun (name, trace) ->
        (name, Dataset.features_of_trace feature ~reference ~sample_size trace))
      classes
  in
  estimate_on_features ?priors ~feature ~sample_size ~named_features ()

let estimate_features ?priors ~features ~reference ~sample_size ~classes () =
  (* Every feature reads the same windows, as index-based views over the
     trace: the scoring loop allocates one feature array per class and
     nothing per window. *)
  List.map
    (fun feature ->
      let named_features =
        Array.map
          (fun (name, trace) ->
            let n = Array.length trace / sample_size in
            ( name,
              Array.init n (fun i ->
                  Feature.extract_in feature ~reference trace
                    ~pos:(i * sample_size) ~len:sample_size) ))
          classes
      in
      estimate_on_features ?priors ~feature ~sample_size ~named_features ())
    features

let entropy_bin_widths features =
  List.sort_uniq Float.compare
    (List.filter_map
       (function
         | Feature.Sample_entropy { bin_width } -> Some bin_width
         | Feature.Sample_mean | Feature.Sample_variance -> None)
       features)

let estimate_windowed ?priors ?backend ~features ~sample_size
    ~named_windows () =
  List.map
    (fun feature ->
      let named_features =
        Array.map
          (fun (name, w) -> (name, Dataset.feature_values w feature))
          named_windows
      in
      estimate_on_features ?priors ?backend ~feature ~sample_size
        ~named_features ())
    features
