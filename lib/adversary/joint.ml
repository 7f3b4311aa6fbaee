type cls = { prior : float; kdes : Stats.Kde.t array }

type t = { classes : cls array; num_features : int }

let train ?priors ~classes () =
  let m = Array.length classes in
  if m < 2 then invalid_arg "Joint.train: need >= 2 classes";
  let priors =
    match priors with
    | None -> Array.make m (1.0 /. float_of_int m)
    | Some p ->
        if Array.length p <> m then invalid_arg "Joint.train: priors length mismatch";
        let total = Array.fold_left ( +. ) 0.0 p in
        if total <= 0.0 || Array.exists (fun x -> x <= 0.0) p then
          invalid_arg "Joint.train: priors must be positive";
        Array.map (fun x -> x /. total) p
  in
  let widths =
    Array.map
      (fun (_, vectors) ->
        if Array.length vectors = 0 then invalid_arg "Joint.train: empty class";
        let w = Array.length vectors.(0) in
        if w < 1 then invalid_arg "Joint.train: zero-width vectors";
        Array.iter
          (fun v ->
            if Array.length v <> w then invalid_arg "Joint.train: ragged vectors")
          vectors;
        w)
      classes
  in
  let num_features = widths.(0) in
  Array.iter
    (fun w -> if w <> num_features then invalid_arg "Joint.train: ragged classes")
    widths;
  let classes =
    Array.mapi
      (fun i (_, vectors) ->
        let kdes =
          Array.init num_features (fun f ->
              Stats.Kde.fit (Array.map (fun v -> v.(f)) vectors))
        in
        { prior = priors.(i); kdes })
      classes
  in
  { classes; num_features }

let num_features t = t.num_features
let num_classes t = Array.length t.classes

let log_score t c v =
  let acc = ref (log c.prior) in
  for f = 0 to t.num_features - 1 do
    acc := !acc +. Stats.Kde.log_pdf c.kdes.(f) v.(f)
  done;
  !acc

let classify t v =
  if Array.length v <> t.num_features then
    invalid_arg "Joint.classify: wrong vector width";
  let best = ref 0 in
  let best_score = ref (log_score t t.classes.(0) v) in
  for i = 1 to Array.length t.classes - 1 do
    let s = log_score t t.classes.(i) v in
    if s > !best_score then begin
      best := i;
      best_score := s
    end
  done;
  !best

let accuracy t cases =
  let m = num_classes t in
  let correct = Array.make m 0 and total = Array.make m 0 in
  Array.iter
    (fun (label, vectors) ->
      if label < 0 || label >= m then invalid_arg "Joint.accuracy: bad label";
      Array.iter
        (fun v ->
          total.(label) <- total.(label) + 1;
          if classify t v = label then correct.(label) <- correct.(label) + 1)
        vectors)
    cases;
  let acc = ref 0.0 in
  for i = 0 to m - 1 do
    if total.(i) = 0 then invalid_arg "Joint.accuracy: class without test data";
    acc :=
      !acc
      +. (t.classes.(i).prior *. float_of_int correct.(i) /. float_of_int total.(i))
  done;
  !acc

let feature_vectors ~features ~reference ~sample_size trace =
  let kinds = Array.of_list features in
  if Array.length kinds = 0 then invalid_arg "Joint.feature_vectors: no features";
  let windows = Dataset.slice trace ~sample_size in
  Array.map
    (fun w -> Array.map (fun kind -> Feature.extract kind ~reference w) kinds)
    windows

let split_vectors vs =
  let n = Array.length vs in
  let even = Array.make ((n + 1) / 2) [||] in
  let odd = Array.make (n / 2) [||] in
  Array.iteri
    (fun i v -> if i mod 2 = 0 then even.(i / 2) <- v else odd.(i / 2) <- v)
    vs;
  (even, odd)

let estimate ?priors ~features ~reference ~sample_size ~classes () =
  let vectors =
    Array.map
      (fun (name, trace) ->
        (name, feature_vectors ~features ~reference ~sample_size trace))
      classes
  in
  let split = Array.map (fun (_, vs) -> split_vectors vs) vectors in
  Array.iter
    (fun (train, test) ->
      if Array.length train < 2 || Array.length test < 2 then
        invalid_arg "Joint.estimate: fewer than 4 vectors in a class")
    split;
  let model =
    train ?priors
      ~classes:(Array.map2 (fun (name, _) (tr, _) -> (name, tr)) vectors split)
      ()
  in
  accuracy model (Array.mapi (fun i (_, test) -> (i, test)) split)
