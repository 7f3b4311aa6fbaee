type cls = { name : string; prior : float; mu : float; sigma : float }

type t = { classes : cls array }

let train ?priors ~classes () =
  let m = Array.length classes in
  if m < 2 then invalid_arg "Parametric.train: need >= 2 classes";
  let priors =
    match priors with
    | None -> Array.make m (1.0 /. float_of_int m)
    | Some p ->
        if Array.length p <> m then
          invalid_arg "Parametric.train: priors length mismatch";
        let total = Array.fold_left ( +. ) 0.0 p in
        if total <= 0.0 || Array.exists (fun x -> x <= 0.0) p then
          invalid_arg "Parametric.train: priors must be positive";
        Array.map (fun x -> x /. total) p
  in
  let classes =
    Array.mapi
      (fun i (name, xs) ->
        if Array.length xs = 0 then
          invalid_arg "Parametric.train: empty training set";
        let mu = Stats.Descriptive.mean xs in
        let sd = if Array.length xs >= 2 then Stats.Descriptive.std xs else 0.0 in
        (* Floor relative to the feature magnitude keeps the density proper
           on degenerate training sets. *)
        let sigma = Float.max sd (1e-9 *. Float.max (Float.abs mu) 1e-12) in
        { name; prior = priors.(i); mu; sigma })
      classes
  in
  { classes }

let num_classes t = Array.length t.classes

let log_score c x =
  log c.prior +. Stats.Special.log_normal_pdf ~mu:c.mu ~sigma:c.sigma x

let classify t x =
  let best = ref 0 in
  let best_score = ref (log_score t.classes.(0) x) in
  for i = 1 to Array.length t.classes - 1 do
    let s = log_score t.classes.(i) x in
    if s > !best_score then begin
      best := i;
      best_score := s
    end
  done;
  !best

let correct_counts t cases =
  let m = num_classes t in
  let correct = Array.make m 0 and total = Array.make m 0 in
  Array.iter
    (fun (label, xs) ->
      if label < 0 || label >= m then invalid_arg "Parametric.accuracy: bad label";
      Array.iter
        (fun x ->
          total.(label) <- total.(label) + 1;
          if classify t x = label then correct.(label) <- correct.(label) + 1)
        xs)
    cases;
  (correct, total)

let weighted_accuracy t ~correct ~total =
  let m = num_classes t in
  if Array.length correct <> m || Array.length total <> m then
    invalid_arg "Parametric.weighted_accuracy: counts length mismatch";
  let acc = ref 0.0 in
  for i = 0 to m - 1 do
    if total.(i) = 0 then invalid_arg "Parametric.accuracy: class without test data";
    acc :=
      !acc
      +. (t.classes.(i).prior *. float_of_int correct.(i) /. float_of_int total.(i))
  done;
  !acc

(* talint: allow U001 — tests read it to observe live accuracy *)
let accuracy t cases =
  let correct, total = correct_counts t cases in
  weighted_accuracy t ~correct ~total
