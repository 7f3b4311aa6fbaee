(* Discrete distributions, m-ary analytics, and ROC. *)

let close ?(tol = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > tol *. Float.max 1.0 (Float.abs expected)
  then Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* --- Discrete --- *)

let test_poisson_pmf_values () =
  let d = Stats.Discrete.poisson ~mean:3.0 in
  close "pmf(0)" (exp (-3.0)) (d.Stats.Discrete.pmf 0);
  close "pmf(3)" (27.0 /. 6.0 *. exp (-3.0)) (d.Stats.Discrete.pmf 3);
  close "pmf(-1)" 0.0 (d.Stats.Discrete.pmf (-1));
  close "mean" 3.0 d.Stats.Discrete.mean

let test_poisson_pmf_sums_to_one () =
  let d = Stats.Discrete.poisson ~mean:7.5 in
  let total = ref 0.0 in
  for k = 0 to 100 do
    total := !total +. d.Stats.Discrete.pmf k
  done;
  close ~tol:1e-9 "mass 1" 1.0 !total

let test_poisson_cdf_consistent () =
  let d = Stats.Discrete.poisson ~mean:4.2 in
  let acc = ref 0.0 in
  for k = 0 to 12 do
    acc := !acc +. d.Stats.Discrete.pmf k;
    close ~tol:1e-9 (Printf.sprintf "cdf(%d)" k) !acc (d.Stats.Discrete.cdf k)
  done

let test_discrete_sampling_moments () =
  let rng = Prng.Rng.create ~seed:261 in
  let d = Stats.Discrete.poisson ~mean:5.0 in
  let acc = Stats.Descriptive.Acc.create () in
  for _ = 1 to 50_000 do
    Stats.Descriptive.Acc.add acc (float_of_int (d.Stats.Discrete.sample rng))
  done;
  close ~tol:0.03 "sample mean" 5.0 (Stats.Descriptive.Acc.mean acc)

let test_bayes_detection_two_poisson () =
  (* Counting attack theory: Poisson(10) vs Poisson(40) per 1 s window is
     nearly separable; identical means give 0.5. *)
  let v =
    Stats.Discrete.bayes_detection_two (Stats.Discrete.poisson ~mean:10.0)
      (Stats.Discrete.poisson ~mean:40.0) ()
  in
  Alcotest.(check bool) "nearly separable" true (v > 0.99);
  let same =
    Stats.Discrete.bayes_detection_two (Stats.Discrete.poisson ~mean:10.0)
      (Stats.Discrete.poisson ~mean:10.0) ()
  in
  close ~tol:1e-6 "identical -> 0.5" 0.5 same

let test_bayes_detection_matches_simulation () =
  let d0 = Stats.Discrete.poisson ~mean:8.0 in
  let d1 = Stats.Discrete.poisson ~mean:13.0 in
  let exact = Stats.Discrete.bayes_detection_two d0 d1 () in
  let rng = Prng.Rng.create ~seed:262 in
  let trials = 40_000 in
  let correct = ref 0 in
  for i = 1 to trials do
    let from_d1 = i mod 2 = 0 in
    let k = if from_d1 then d1.Stats.Discrete.sample rng else d0.Stats.Discrete.sample rng in
    let guess_d1 = d1.Stats.Discrete.pmf k > d0.Stats.Discrete.pmf k in
    if guess_d1 = from_d1 then incr correct
  done;
  close ~tol:0.02 "Monte-Carlo agrees" exact
    (float_of_int !correct /. float_of_int trials)

(* --- Analytical.Multirate --- *)

let sigma2s = [| 1.0; 1.5; 2.2; 3.5 |]

let test_thresholds_interleave () =
  let d = Analytical.Multirate.thresholds_variance ~sigma2s ~n:100 in
  Alcotest.(check int) "m-1 thresholds" 3 (Array.length d);
  Array.iteri
    (fun i t ->
      if not (t > sigma2s.(i) && t < sigma2s.(i + 1)) then
        Alcotest.failf "threshold %d = %f not in (%f, %f)" i t sigma2s.(i)
          sigma2s.(i + 1))
    d

let test_mary_reduces_to_binary () =
  let two = [| 1.0; 2.0 |] in
  close ~tol:1e-12 "m=2 = two-class exact"
    (Analytical.Bayes_numeric.sample_variance_exact ~sigma2_l:1.0 ~sigma2_h:2.0
       ~n:200)
    (Analytical.Multirate.mary_variance_exact ~sigma2s:two ~n:200)

let test_mary_properties () =
  let v100 = Analytical.Multirate.mary_variance_exact ~sigma2s ~n:100 in
  let v1000 = Analytical.Multirate.mary_variance_exact ~sigma2s ~n:1000 in
  Alcotest.(check bool) "above floor" true (v100 > 0.25);
  Alcotest.(check bool) "monotone in n" true (v1000 > v100);
  Alcotest.(check bool) "below 1" true (v1000 <= 1.0);
  (* more classes with the same spread are harder *)
  let v_two =
    Analytical.Bayes_numeric.sample_variance_exact ~sigma2_l:1.0 ~sigma2_h:3.5
      ~n:100
  in
  Alcotest.(check bool) "4-ary harder than extreme pair" true (v100 < v_two)

let test_confusion_rows_sum () =
  let c = Analytical.Multirate.confusion_variance_exact ~sigma2s ~n:60 in
  Array.iteri
    (fun i row ->
      let s = Array.fold_left ( +. ) 0.0 row in
      if Float.abs (s -. 1.0) > 1e-9 then Alcotest.failf "row %d sums to %f" i s;
      (* diagonal should dominate for adjacent confusion at this n *)
      Alcotest.(check bool) "diag max" true
        (Array.for_all (fun x -> x <= row.(i) +. 1e-12) row))
    c

let test_mary_confusion_matches_simulation () =
  let rng = Prng.Rng.create ~seed:263 in
  let n = 30 in
  let sigma2s = [| 1.0; 2.0 |] in
  let exact = Analytical.Multirate.mary_variance_exact ~sigma2s ~n in
  let trials = 30_000 in
  let thresholds = Analytical.Multirate.thresholds_variance ~sigma2s ~n in
  let correct = ref 0 in
  for i = 1 to trials do
    let cls = i mod 2 in
    let sigma = sqrt sigma2s.(cls) in
    let xs = Array.init n (fun _ -> Prng.Sampler.normal rng ~mu:0.0 ~sigma) in
    let s2 = Stats.Descriptive.variance xs in
    let decision = if s2 <= thresholds.(0) then 0 else 1 in
    if decision = cls then incr correct
  done;
  close ~tol:0.02 "simulated m-ary accuracy" exact
    (float_of_int !correct /. float_of_int trials)

let test_multirate_invalid () =
  Alcotest.check_raises "not increasing"
    (Invalid_argument "Multirate: variances must be strictly increasing")
    (fun () ->
      ignore
        (Analytical.Multirate.thresholds_variance ~sigma2s:[| 2.0; 1.0 |] ~n:10))

(* --- ROC --- *)

let test_roc_separable () =
  let negatives = [| 1.0; 2.0; 3.0 |] and positives = [| 10.0; 11.0; 12.0 |] in
  close "AUC 1" 1.0 (Adversary.Roc.auc ~negatives ~positives);
  let _, acc = Adversary.Roc.best_accuracy ~negatives ~positives in
  close "best accuracy 1" 1.0 acc

let test_roc_blind () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  close "AUC self" 0.5 (Adversary.Roc.auc ~negatives:xs ~positives:xs)

let test_roc_auc_against_hand_count () =
  (* negatives {1,3}, positives {2,4}: pairs (2>1),(2<3),(4>1),(4>3) ->
     3/4 *)
  close "hand AUC" 0.75
    (Adversary.Roc.auc ~negatives:[| 1.0; 3.0 |] ~positives:[| 2.0; 4.0 |])

let test_roc_curve_monotone_endpoints () =
  let rng = Prng.Rng.create ~seed:264 in
  let negatives = Array.init 200 (fun _ -> Prng.Sampler.normal rng ~mu:0.0 ~sigma:1.0) in
  let positives = Array.init 200 (fun _ -> Prng.Sampler.normal rng ~mu:1.0 ~sigma:1.0) in
  let pts = Adversary.Roc.curve ~negatives ~positives in
  (match pts with
  | first :: _ ->
      close "starts at (0,0) fa" 0.0 first.Adversary.Roc.false_alarm;
      close "starts at (0,0) hit" 0.0 first.Adversary.Roc.hit_rate
  | [] -> Alcotest.fail "empty curve");
  let last = List.nth pts (List.length pts - 1) in
  close "ends at (1,1) fa" 1.0 last.Adversary.Roc.false_alarm;
  close "ends at (1,1) hit" 1.0 last.Adversary.Roc.hit_rate;
  (* monotone non-decreasing along the curve *)
  let rec check_monotone = function
    | a :: (b :: _ as rest) ->
        if
          b.Adversary.Roc.false_alarm < a.Adversary.Roc.false_alarm -. 1e-12
          || b.Adversary.Roc.hit_rate < a.Adversary.Roc.hit_rate -. 1e-12
        then Alcotest.fail "curve not monotone"
        else check_monotone rest
    | _ -> ()
  in
  check_monotone pts

let test_roc_auc_matches_gaussian_theory () =
  (* For N(0,1) vs N(d,1), AUC = Phi(d/sqrt 2). *)
  let rng = Prng.Rng.create ~seed:265 in
  let d = 1.5 in
  let negatives = Array.init 8000 (fun _ -> Prng.Sampler.normal rng ~mu:0.0 ~sigma:1.0) in
  let positives = Array.init 8000 (fun _ -> Prng.Sampler.normal rng ~mu:d ~sigma:1.0) in
  close ~tol:0.02 "AUC = Phi(d/sqrt2)"
    (Stats.Special.normal_cdf ~mu:0.0 ~sigma:1.0 (d /. sqrt 2.0))
    (Adversary.Roc.auc ~negatives ~positives)

let test_roc_best_accuracy_matches_bayes () =
  (* Equal-variance normals: best threshold ~ midpoint, accuracy ~ Phi(d/2). *)
  let rng = Prng.Rng.create ~seed:266 in
  let d = 2.0 in
  let negatives = Array.init 5000 (fun _ -> Prng.Sampler.normal rng ~mu:0.0 ~sigma:1.0) in
  let positives = Array.init 5000 (fun _ -> Prng.Sampler.normal rng ~mu:d ~sigma:1.0) in
  let threshold, acc = Adversary.Roc.best_accuracy ~negatives ~positives in
  close ~tol:0.15 "threshold near midpoint" 1.0 threshold;
  close ~tol:0.02 "accuracy near Phi(1)"
    (Stats.Special.normal_cdf ~mu:0.0 ~sigma:1.0 1.0)
    acc

let test_roc_invalid () =
  Alcotest.check_raises "empty" (Invalid_argument "Roc: empty class") (fun () ->
      ignore (Adversary.Roc.auc ~negatives:[||] ~positives:[| 1.0 |]))

let suite =
  [
    Alcotest.test_case "poisson pmf values" `Quick test_poisson_pmf_values;
    Alcotest.test_case "poisson mass" `Quick test_poisson_pmf_sums_to_one;
    Alcotest.test_case "poisson cdf" `Quick test_poisson_cdf_consistent;
    Alcotest.test_case "discrete sampling" `Quick test_discrete_sampling_moments;
    Alcotest.test_case "two-poisson Bayes" `Quick test_bayes_detection_two_poisson;
    Alcotest.test_case "discrete Bayes = Monte-Carlo" `Quick test_bayes_detection_matches_simulation;
    Alcotest.test_case "thresholds interleave" `Quick test_thresholds_interleave;
    Alcotest.test_case "m=2 reduces to binary" `Quick test_mary_reduces_to_binary;
    Alcotest.test_case "m-ary properties" `Quick test_mary_properties;
    Alcotest.test_case "confusion rows sum to 1" `Quick test_confusion_rows_sum;
    Alcotest.test_case "m-ary = Monte-Carlo" `Quick test_mary_confusion_matches_simulation;
    Alcotest.test_case "multirate invalid" `Quick test_multirate_invalid;
    Alcotest.test_case "ROC separable" `Quick test_roc_separable;
    Alcotest.test_case "ROC blind" `Quick test_roc_blind;
    Alcotest.test_case "ROC hand count" `Quick test_roc_auc_against_hand_count;
    Alcotest.test_case "ROC curve endpoints" `Quick test_roc_curve_monotone_endpoints;
    Alcotest.test_case "ROC AUC gaussian theory" `Quick test_roc_auc_matches_gaussian_theory;
    Alcotest.test_case "ROC best accuracy" `Quick test_roc_best_accuracy_matches_bayes;
    Alcotest.test_case "ROC invalid" `Quick test_roc_invalid;
  ]
