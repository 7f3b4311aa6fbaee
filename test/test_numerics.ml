(* Quadrature, bisection root finding, and hypothesis tests. *)

let close ?(tol = 1e-8) msg expected actual =
  if Float.abs (expected -. actual) > tol then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* --- Integrate --- *)

let test_simpson_polynomial () =
  (* Simpson is exact on cubics. *)
  close "x^3 on [0,2]" 4.0
    (Stats.Integrate.simpson (fun x -> x *. x *. x) ~lo:0.0 ~hi:2.0)

let test_simpson_transcendental () =
  close "sin on [0,pi]" 2.0 (Stats.Integrate.simpson sin ~lo:0.0 ~hi:Float.pi);
  close "e^x on [0,1]" (Float.exp 1.0 -. 1.0)
    (Stats.Integrate.simpson exp ~lo:0.0 ~hi:1.0)

let test_simpson_gaussian_mass () =
  close ~tol:1e-8 "normal pdf over 8 sigma" 1.0
    (Stats.Integrate.simpson
       (Stats.Special.normal_pdf ~mu:0.0 ~sigma:1.0)
       ~lo:(-8.0) ~hi:8.0)

let test_simpson_reversed_limits () =
  close "sign flip" (-2.0) (Stats.Integrate.simpson sin ~lo:Float.pi ~hi:0.0)

let test_simpson_empty_interval () =
  close "zero width" 0.0 (Stats.Integrate.simpson exp ~lo:1.0 ~hi:1.0)

(* --- Rootfind --- *)

let test_bisect_sqrt2 () =
  close ~tol:1e-9 "sqrt 2"
    (sqrt 2.0)
    (Stats.Rootfind.bisect (fun x -> (x *. x) -. 2.0) ~lo:0.0 ~hi:2.0)

let test_bisect_endpoint_root () =
  close "root at endpoint" 1.0
    (Stats.Rootfind.bisect (fun x -> x -. 1.0) ~lo:1.0 ~hi:3.0)

let test_bisect_no_bracket () =
  Alcotest.check_raises "same sign"
    (Invalid_argument "Rootfind.bisect: no sign change on bracket") (fun () ->
      ignore (Stats.Rootfind.bisect (fun x -> (x *. x) +. 1.0) ~lo:0.0 ~hi:1.0))

(* --- Hypothesis --- *)

let test_ks_accepts_true_null () =
  let rng = Prng.Rng.create ~seed:81 in
  let xs = Array.init 2000 (fun _ -> Prng.Sampler.normal rng ~mu:0.0 ~sigma:1.0) in
  let res =
    Stats.Hypothesis.ks_test xs ~cdf:(Stats.Special.normal_cdf ~mu:0.0 ~sigma:1.0)
  in
  Alcotest.(check bool) "p not tiny under H0" true
    (res.Stats.Hypothesis.p_value > 0.005)

let test_ks_rejects_wrong_null () =
  let rng = Prng.Rng.create ~seed:82 in
  let xs = Array.init 2000 (fun _ -> Prng.Sampler.exponential rng ~rate:1.0) in
  let res =
    Stats.Hypothesis.ks_test xs ~cdf:(Stats.Special.normal_cdf ~mu:1.0 ~sigma:1.0)
  in
  Alcotest.(check bool) "p tiny under wrong H0" true
    (res.Stats.Hypothesis.p_value < 1e-6)

let test_kolmogorov_sf_values () =
  (* Q(0.828) ~ 0.50 is the median of the Kolmogorov law *)
  close ~tol:0.01 "median" 0.5 (Stats.Hypothesis.kolmogorov_sf 0.8276);
  close "Q(0) = 1" 1.0 (Stats.Hypothesis.kolmogorov_sf 0.0);
  Alcotest.(check bool) "Q decreasing" true
    (Stats.Hypothesis.kolmogorov_sf 1.5 < Stats.Hypothesis.kolmogorov_sf 0.5)

let test_jarque_bera_normal_vs_exponential () =
  let rng = Prng.Rng.create ~seed:83 in
  let normal = Array.init 3000 (fun _ -> Prng.Sampler.normal rng ~mu:0.0 ~sigma:1.0) in
  let expo = Array.init 3000 (fun _ -> Prng.Sampler.exponential rng ~rate:1.0) in
  let jn = Stats.Hypothesis.jarque_bera normal in
  let je = Stats.Hypothesis.jarque_bera expo in
  Alcotest.(check bool) "normal passes" true (jn.Stats.Hypothesis.p_value > 0.005);
  Alcotest.(check bool) "exponential fails" true
    (je.Stats.Hypothesis.p_value < 1e-10)

let test_jarque_bera_small_sample_raises () =
  Alcotest.check_raises "n < 8"
    (Invalid_argument "Hypothesis.jarque_bera: need n >= 8") (fun () ->
      ignore (Stats.Hypothesis.jarque_bera [| 1.0; 2.0; 3.0 |]))

let test_chi_square_gof_exact_fit () =
  let res =
    Stats.Hypothesis.chi_square_gof ~observed:[| 10; 10; 10 |]
      ~expected:[| 10.0; 10.0; 10.0 |]
  in
  close "stat 0" 0.0 res.Stats.Hypothesis.statistic;
  close "p 1" 1.0 res.Stats.Hypothesis.p_value

let test_chi_square_gof_bad_fit () =
  let res =
    Stats.Hypothesis.chi_square_gof ~observed:[| 100; 0; 0 |]
      ~expected:[| 33.3; 33.3; 33.4 |]
  in
  Alcotest.(check bool) "p tiny" true (res.Stats.Hypothesis.p_value < 1e-10)

let test_chi_square_gof_invalid () =
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Hypothesis.chi_square_gof: length mismatch") (fun () ->
      ignore
        (Stats.Hypothesis.chi_square_gof ~observed:[| 1 |] ~expected:[| 1.0; 2.0 |]))

let prop_simpson_linearity =
  QCheck.Test.make ~name:"simpson linear in integrand" ~count:60
    QCheck.(pair (float_range (-5.0) 5.0) (float_range (-5.0) 5.0))
    (fun (a, b) ->
      let lo = Float.min a b and hi = Float.max a b in
      let i1 = Stats.Integrate.simpson (fun x -> 2.0 *. sin x) ~lo ~hi in
      let i2 = Stats.Integrate.simpson sin ~lo ~hi in
      Float.abs (i1 -. (2.0 *. i2)) < 1e-7)

let suite =
  [
    Alcotest.test_case "simpson exact on cubic" `Quick test_simpson_polynomial;
    Alcotest.test_case "simpson transcendental" `Quick test_simpson_transcendental;
    Alcotest.test_case "simpson gaussian mass" `Quick test_simpson_gaussian_mass;
    Alcotest.test_case "simpson reversed limits" `Quick test_simpson_reversed_limits;
    Alcotest.test_case "simpson empty interval" `Quick test_simpson_empty_interval;
    Alcotest.test_case "bisect sqrt2" `Quick test_bisect_sqrt2;
    Alcotest.test_case "bisect endpoint root" `Quick test_bisect_endpoint_root;
    Alcotest.test_case "bisect needs bracket" `Quick test_bisect_no_bracket;
    Alcotest.test_case "KS accepts H0" `Quick test_ks_accepts_true_null;
    Alcotest.test_case "KS rejects wrong H0" `Quick test_ks_rejects_wrong_null;
    Alcotest.test_case "kolmogorov SF" `Quick test_kolmogorov_sf_values;
    Alcotest.test_case "JB normal vs exponential" `Quick test_jarque_bera_normal_vs_exponential;
    Alcotest.test_case "JB small sample" `Quick test_jarque_bera_small_sample_raises;
    Alcotest.test_case "chi2 GoF exact" `Quick test_chi_square_gof_exact_fit;
    Alcotest.test_case "chi2 GoF bad" `Quick test_chi_square_gof_bad_fit;
    Alcotest.test_case "chi2 GoF invalid" `Quick test_chi_square_gof_invalid;
    QCheck_alcotest.to_alcotest prop_simpson_linearity;
  ]
