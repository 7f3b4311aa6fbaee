type cls = { prior : float; kde : Stats.Kde.t; mean : float }

type t = { classes : cls array }

let train ?priors ~classes () =
  let m = Array.length classes in
  if m < 2 then invalid_arg "Classifier.train: need >= 2 classes";
  let priors =
    match priors with
    | None -> Array.make m (1.0 /. float_of_int m)
    | Some p ->
        if Array.length p <> m then
          invalid_arg "Classifier.train: priors length mismatch";
        let total = Array.fold_left ( +. ) 0.0 p in
        if total <= 0.0 || Array.exists (fun x -> x <= 0.0) p then
          invalid_arg "Classifier.train: priors must be positive";
        Array.map (fun x -> x /. total) p
  in
  let classes =
    Array.mapi
      (fun i (_, xs) ->
        if Array.length xs = 0 then
          invalid_arg "Classifier.train: empty training set";
        {
          prior = priors.(i);
          kde = Stats.Kde.fit xs;
          mean = Stats.Descriptive.mean xs;
        })
      classes
  in
  { classes }

let num_classes t = Array.length t.classes

(* Inlined so a class's score is not boxed on its way back to
   [classify]. *)
let[@inline] log_score cls x = log cls.prior +. Stats.Kde.log_pdf cls.kde x

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
  for c = 0 to Array.length cases - 1 do
    let label, xs = cases.(c) in
    if label < 0 || label >= m then invalid_arg "Classifier.accuracy: bad label";
    for i = 0 to Array.length xs - 1 do
      total.(label) <- total.(label) + 1;
      if classify t xs.(i) = label then correct.(label) <- correct.(label) + 1
    done
  done;
  (correct, total)

let weighted_accuracy t ~correct ~total =
  let m = num_classes t in
  if Array.length correct <> m || Array.length total <> m then
    invalid_arg "Classifier.weighted_accuracy: counts length mismatch";
  let acc = ref 0.0 in
  for i = 0 to m - 1 do
    if total.(i) = 0 then invalid_arg "Classifier.accuracy: class without test data";
    acc :=
      !acc +. (t.classes.(i).prior *. float_of_int correct.(i) /. float_of_int total.(i))
  done;
  !acc

(* talint: allow U001 — tests read it to observe live accuracy *)
let accuracy t cases =
  let correct, total = correct_counts t cases in
  weighted_accuracy t ~correct ~total

let threshold_two_class t =
  if num_classes t <> 2 then
    invalid_arg "Classifier.threshold_two_class: not a binary classifier";
  let c0 = t.classes.(0) and c1 = t.classes.(1) in
  let f x = log_score c0 x -. log_score c1 x in
  let lo = Float.min c0.mean c1.mean and hi = Float.max c0.mean c1.mean in
  if lo = hi then None
  else
    let flo = f lo and fhi = f hi in
    if (flo > 0.0 && fhi > 0.0) || (flo < 0.0 && fhi < 0.0) then None
    else Some (Stats.Rootfind.bisect f ~lo ~hi)
