(* Distributional tests for the variate samplers: moments and KS checks
   against the target laws, plus domain validation. *)

let rng () = Prng.Rng.create ~seed:2024

let moments n f =
  let acc = Stats.Descriptive.Acc.create () in
  for _ = 1 to n do
    Stats.Descriptive.Acc.add acc (f ())
  done;
  acc

let close ?(tol = 0.05) msg expected actual =
  let scale = Float.max (Float.abs expected) 1.0 in
  if Float.abs (expected -. actual) > tol *. scale then
    Alcotest.failf "%s: expected %.5g, got %.5g" msg expected actual

let test_normal_moments () =
  let r = rng () in
  let acc = moments 200_000 (fun () -> Prng.Sampler.normal r ~mu:3.0 ~sigma:2.0) in
  close "mean" 3.0 (Stats.Descriptive.Acc.mean acc);
  close "std" 2.0 (Stats.Descriptive.Acc.std acc);
  close ~tol:0.08 "skewness ~ 0" 0.0 (Stats.Descriptive.Acc.skewness acc);
  close ~tol:0.12 "excess kurtosis ~ 0" 0.0
    (Stats.Descriptive.Acc.kurtosis_excess acc)

let test_normal_ks () =
  let r = rng () in
  let xs = Array.init 3000 (fun _ -> Prng.Sampler.normal r ~mu:0.0 ~sigma:1.0) in
  let res =
    Stats.Hypothesis.ks_test xs ~cdf:(Stats.Special.normal_cdf ~mu:0.0 ~sigma:1.0)
  in
  Alcotest.(check bool) "KS p > 0.01" true (res.Stats.Hypothesis.p_value > 0.01)

let test_normal_sigma_zero () =
  let r = rng () in
  Alcotest.(check (float 0.0)) "degenerate normal" 5.0
    (Prng.Sampler.normal r ~mu:5.0 ~sigma:0.0)

let test_normal_invalid () =
  let r = rng () in
  Alcotest.check_raises "negative sigma"
    (Invalid_argument "Sampler.normal: sigma < 0") (fun () ->
      ignore (Prng.Sampler.normal r ~mu:0.0 ~sigma:(-1.0)))

let test_truncated_normal_positive () =
  let r = rng () in
  for _ = 1 to 20_000 do
    let x = Prng.Sampler.truncated_normal_pos r ~mu:1e-3 ~sigma:2e-3 in
    Alcotest.(check bool) "strictly positive" true (x > 0.0)
  done

let test_truncated_normal_mean_negligible_truncation () =
  (* With mu >> sigma truncation is negligible: mean ~ mu. *)
  let r = rng () in
  let acc =
    moments 100_000 (fun () ->
        Prng.Sampler.truncated_normal_pos r ~mu:0.010 ~sigma:1e-4)
  in
  close ~tol:0.001 "mean ~ mu" 0.010 (Stats.Descriptive.Acc.mean acc)

let test_exponential_moments () =
  let r = rng () in
  let acc = moments 200_000 (fun () -> Prng.Sampler.exponential r ~rate:4.0) in
  close "mean 1/rate" 0.25 (Stats.Descriptive.Acc.mean acc);
  close ~tol:0.08 "std 1/rate" 0.25 (Stats.Descriptive.Acc.std acc)

let test_exponential_ks () =
  let r = rng () in
  let xs = Array.init 3000 (fun _ -> Prng.Sampler.exponential r ~rate:2.0) in
  let cdf x = if x <= 0.0 then 0.0 else 1.0 -. exp (-2.0 *. x) in
  let res = Stats.Hypothesis.ks_test xs ~cdf in
  Alcotest.(check bool) "KS p > 0.01" true (res.Stats.Hypothesis.p_value > 0.01)

let test_exponential_invalid () =
  let r = rng () in
  Alcotest.check_raises "rate 0" (Invalid_argument "Sampler.exponential: rate <= 0")
    (fun () -> ignore (Prng.Sampler.exponential r ~rate:0.0))

let test_pareto_support_and_mean () =
  let r = rng () in
  let shape = 3.0 and scale = 2.0 in
  let acc =
    moments 200_000 (fun () -> Prng.Sampler.pareto r ~shape ~scale)
  in
  Alcotest.(check bool) "support >= scale" true
    (Stats.Descriptive.Acc.min acc >= scale);
  close ~tol:0.03 "mean = shape*scale/(shape-1)" 3.0
    (Stats.Descriptive.Acc.mean acc)

let test_poisson_small_mean () =
  let r = rng () in
  let acc =
    moments 100_000 (fun () -> float_of_int (Prng.Sampler.poisson r ~mean:3.5))
  in
  close ~tol:0.03 "mean" 3.5 (Stats.Descriptive.Acc.mean acc);
  close ~tol:0.03 "variance = mean" 3.5
    (Stats.Descriptive.Acc.population_variance acc)

let test_poisson_large_mean () =
  let r = rng () in
  let acc =
    moments 50_000 (fun () -> float_of_int (Prng.Sampler.poisson r ~mean:200.0))
  in
  close ~tol:0.02 "mean" 200.0 (Stats.Descriptive.Acc.mean acc);
  close ~tol:0.08 "variance" 200.0
    (Stats.Descriptive.Acc.population_variance acc)

let test_poisson_zero () =
  let r = rng () in
  Alcotest.(check int) "mean 0 -> 0" 0 (Prng.Sampler.poisson r ~mean:0.0)

let test_bernoulli_frequency () =
  let r = rng () in
  let hits = ref 0 in
  let n = 100_000 in
  for _ = 1 to n do
    if Prng.Sampler.bernoulli r ~p:0.2 then incr hits
  done;
  close ~tol:0.03 "P(true)" 0.2 (float_of_int !hits /. float_of_int n)

let test_nan_parameters_rejected () =
  (* Every NaN compare is false, so a [p < 0.0 || p > 1.0] style guard
     lets NaN through: poisson would loop forever, bernoulli always
     return false, and the continuous samplers return NaN. *)
  let r = rng () in
  let nan = Float.nan in
  let raises name msg f =
    Alcotest.check_raises name (Invalid_argument msg) (fun () -> ignore (f ()))
  in
  raises "poisson mean" "Sampler.poisson: mean < 0" (fun () ->
      Prng.Sampler.poisson r ~mean:nan);
  raises "bernoulli p" "Sampler.bernoulli: p out of [0,1]" (fun () ->
      Prng.Sampler.bernoulli r ~p:nan);
  raises "normal sigma" "Sampler.normal: sigma < 0" (fun () ->
      Prng.Sampler.normal r ~mu:0.0 ~sigma:nan);
  raises "normal mu" "Sampler.normal: mu is NaN" (fun () ->
      Prng.Sampler.normal r ~mu:nan ~sigma:1.0);
  raises "pareto shape" "Sampler.pareto: shape <= 0" (fun () ->
      Prng.Sampler.pareto r ~shape:nan ~scale:1.0);
  raises "pareto scale" "Sampler.pareto: scale <= 0" (fun () ->
      Prng.Sampler.pareto r ~shape:1.5 ~scale:nan);
  raises "truncated_normal_pos mu" "Sampler.truncated_normal_pos: mu <= 0"
    (fun () -> Prng.Sampler.truncated_normal_pos r ~mu:nan ~sigma:1.0);
  raises "truncated_normal_pos sigma"
    "Sampler.truncated_normal_pos: sigma < 0" (fun () ->
      Prng.Sampler.truncated_normal_pos r ~mu:1.0 ~sigma:nan);
  raises "float_range lo" "Rng.float_range: requires lo <= hi" (fun () ->
      Prng.Rng.float_range r ~lo:nan ~hi:1.0);
  raises "uniform hi" "Rng.float_range: requires lo <= hi" (fun () ->
      Prng.Sampler.uniform r ~lo:0.0 ~hi:nan)

let test_shuffle_permutation () =
  let r = rng () in
  let arr = Array.init 50 Fun.id in
  Prng.Sampler.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

let test_shuffle_uniform_first_element () =
  let r = rng () in
  let counts = Array.make 4 0 in
  let n = 40_000 in
  for _ = 1 to n do
    let arr = [| 0; 1; 2; 3 |] in
    Prng.Sampler.shuffle r arr;
    counts.(arr.(0)) <- counts.(arr.(0)) + 1
  done;
  let expected = Array.make 4 (float_of_int n /. 4.0) in
  let res = Stats.Hypothesis.chi_square_gof ~observed:counts ~expected in
  Alcotest.(check bool) "first slot uniform" true
    (res.Stats.Hypothesis.p_value > 0.001)

let suite =
  [
    Alcotest.test_case "normal moments" `Quick test_normal_moments;
    Alcotest.test_case "normal KS" `Quick test_normal_ks;
    Alcotest.test_case "normal sigma=0" `Quick test_normal_sigma_zero;
    Alcotest.test_case "normal invalid sigma" `Quick test_normal_invalid;
    Alcotest.test_case "truncated normal positive" `Quick test_truncated_normal_positive;
    Alcotest.test_case "truncated normal mean" `Quick test_truncated_normal_mean_negligible_truncation;
    Alcotest.test_case "exponential moments" `Quick test_exponential_moments;
    Alcotest.test_case "exponential KS" `Quick test_exponential_ks;
    Alcotest.test_case "exponential invalid" `Quick test_exponential_invalid;
    Alcotest.test_case "pareto support+mean" `Quick test_pareto_support_and_mean;
    Alcotest.test_case "poisson small mean" `Quick test_poisson_small_mean;
    Alcotest.test_case "poisson large mean" `Quick test_poisson_large_mean;
    Alcotest.test_case "poisson zero mean" `Quick test_poisson_zero;
    Alcotest.test_case "bernoulli frequency" `Quick test_bernoulli_frequency;
    Alcotest.test_case "NaN parameters rejected" `Quick
      test_nan_parameters_rejected;
    Alcotest.test_case "shuffle permutes" `Quick test_shuffle_permutation;
    Alcotest.test_case "shuffle uniform" `Quick test_shuffle_uniform_first_element;
  ]
