(* Analytical layer: ratio composition, Theorems 1-3 properties and
   values, exact Bayes oracles, design solver. *)

let close ?(tol = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > tol *. Float.max 1.0 (Float.abs expected)
  then Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* --- Ratio --- *)

let test_ratio_composition () =
  let c =
    Analytical.Ratio.make ~sigma_t:3e-6 ~sigma_net:4e-6 ~sigma_gw_low:1e-6
      ~sigma_gw_high:2e-6 ()
  in
  (* (9+16+4)/(9+16+1) = 29/26 *)
  close "r" (29.0 /. 26.0) (Analytical.Ratio.r c)

let test_ratio_cit_at_gateway () =
  let c = Analytical.Ratio.make ~sigma_gw_low:1e-6 ~sigma_gw_high:2e-6 () in
  close "pure gw ratio" 4.0 (Analytical.Ratio.r c)

let test_ratio_noise_drives_r_to_one () =
  let r_with sigma_t =
    Analytical.Ratio.r
      (Analytical.Ratio.make ~sigma_t ~sigma_gw_low:1e-6 ~sigma_gw_high:2e-6 ())
  in
  Alcotest.(check bool) "monotone down" true (r_with 1e-6 > r_with 1e-5);
  Alcotest.(check bool) "to 1" true (r_with 1e-3 < 1.00001)

let test_ratio_invalid () =
  Alcotest.check_raises "ordering"
    (Invalid_argument "Ratio.make: sigma_gw_high < sigma_gw_low") (fun () ->
      ignore (Analytical.Ratio.make ~sigma_gw_low:2e-6 ~sigma_gw_high:1e-6 ()))

(* --- Theorems --- *)

let test_v_mean_properties () =
  close "v(1) = 0.5" 0.5 (Analytical.Theorems.v_mean ~r:1.0);
  Alcotest.(check bool) "increasing in r" true
    (Analytical.Theorems.v_mean ~r:2.0 < Analytical.Theorems.v_mean ~r:4.0);
  Alcotest.(check bool) "bounded" true
    (Analytical.Theorems.v_mean ~r:1e6 < 1.0);
  (* continuity at r -> 1+ *)
  close ~tol:1e-3 "continuous at 1" 0.5 (Analytical.Theorems.v_mean ~r:1.0001)

let test_v_mean_matches_exact_oracle () =
  (* v_mean implements the exact two-normal equal-mean Bayes rate; it must
     agree with the independent quadratic-region construction. *)
  List.iter
    (fun r ->
      close ~tol:1e-9 (Printf.sprintf "r=%.2f" r)
        (Analytical.Bayes_numeric.sample_mean_exact ~sigma_l:1.0 ~sigma_h:(sqrt r))
        (Analytical.Theorems.v_mean ~r))
    [ 1.0; 1.2; 2.0; 5.0; 20.0 ]

let test_v_mean_paper_printed_shape () =
  (* The printed formula is kept for reference: it is increasing in r but
     violates v(1) = 0.5 (documented OCR corruption). *)
  close ~tol:1e-6 "printed value at 1"
    (1.0 -. (1.0 /. (2.0 *. sqrt 2.0)))
    (Analytical.Theorems.v_mean_paper_printed ~r:1.0);
  Alcotest.(check bool) "increasing" true
    (Analytical.Theorems.v_mean_paper_printed ~r:4.0
    > Analytical.Theorems.v_mean_paper_printed ~r:1.0)

let test_c_variance_values () =
  (* Independent recomputation at r = 2: a = 1 - ln2, b = 2 ln2 - 1. *)
  let a = 1.0 -. log 2.0 and b = (2.0 *. log 2.0) -. 1.0 in
  close "C_Y(2)"
    ((1.0 /. (2.0 *. a *. a)) +. (1.0 /. (2.0 *. b *. b)))
    (Analytical.Theorems.c_variance ~r:2.0);
  Alcotest.(check bool) "C_Y(1) infinite" true
    (Analytical.Theorems.c_variance ~r:1.0 = Float.infinity);
  Alcotest.(check bool) "decreasing in r" true
    (Analytical.Theorems.c_variance ~r:3.0 < Analytical.Theorems.c_variance ~r:1.5)

let test_v_variance_properties () =
  (* Monotone in n; floor 0.5; -> 1 as n -> inf. *)
  let r = 2.0 in
  Alcotest.(check bool) "monotone in n" true
    (Analytical.Theorems.v_variance ~r ~n:100
    < Analytical.Theorems.v_variance ~r ~n:1000);
  close "floor at tiny n" 0.5 (Analytical.Theorems.v_variance ~r ~n:2);
  Alcotest.(check bool) "approaches 1" true
    (Analytical.Theorems.v_variance ~r ~n:10_000_000 > 0.999);
  close "v(r=1) = 0.5" 0.5 (Analytical.Theorems.v_variance ~r:1.0 ~n:1_000_000)

let test_v_entropy_properties () =
  let r = 2.0 in
  Alcotest.(check bool) "monotone in n" true
    (Analytical.Theorems.v_entropy ~r ~n:100
    < Analytical.Theorems.v_entropy ~r ~n:1000);
  close "v(r=1) = 0.5" 0.5 (Analytical.Theorems.v_entropy ~r:1.0 ~n:1_000_000);
  Alcotest.(check bool) "increasing in r" true
    (Analytical.Theorems.v_entropy ~r:1.5 ~n:500
    < Analytical.Theorems.v_entropy ~r:3.0 ~n:500)

let test_c_entropy_value () =
  let r = 2.0 in
  let lr = log 2.0 in
  let a = log (2.0 *. lr) and b = log (1.0 /. lr) in
  close "C_H(2)"
    ((1.0 /. (2.0 *. a *. a)) +. (1.0 /. (2.0 *. b *. b)))
    (Analytical.Theorems.c_entropy ~r)

let test_n_for_detection () =
  let r = 1.5 in
  let n_var = Analytical.Theorems.n_for_detection_variance ~r ~p:0.99 in
  (* plugging back in: v(n) ~ 0.99 *)
  close ~tol:1e-3 "inverse of v_variance" 0.99
    (Analytical.Theorems.v_variance ~r ~n:(int_of_float (Float.ceil n_var)));
  Alcotest.(check bool) "harder target needs more" true
    (Analytical.Theorems.n_for_detection_variance ~r ~p:0.999 > n_var);
  Alcotest.(check bool) "r=1 impossible" true
    (Analytical.Theorems.n_for_detection_variance ~r:1.0 ~p:0.99 = Float.infinity)

let test_paper_headline_sample_sizes () =
  (* Fig 5(b) headline: with gateway jitter in the microsecond range and
     sigma_T = 1 ms, n(99%) exceeds 1e11. *)
  let r =
    Analytical.Ratio.r
      (Analytical.Ratio.make ~sigma_t:1e-3 ~sigma_gw_low:2.2e-6
         ~sigma_gw_high:3.1e-6 ())
  in
  Alcotest.(check bool) "astronomical sample size" true
    (Analytical.Theorems.n_for_detection_variance ~r ~p:0.99 > 1e11)

let test_decision_threshold_variance_between () =
  let d = Analytical.Theorems.decision_threshold_variance ~sigma2_l:1.0 ~sigma2_h:2.0 in
  Alcotest.(check bool) "between variances" true (d > 1.0 && d < 2.0);
  (* At the threshold, the two asymptotic likelihoods cross: check it is
     the known closed form 2 ln 2. *)
  close "closed form" (2.0 *. log 2.0) d

(* --- Bayes_numeric --- *)

let test_two_normal_equal_variance () =
  (* Equal sigma, means 2 apart: v = Phi(1) exactly. *)
  close ~tol:1e-9 "Phi(1)"
    (Stats.Special.normal_cdf ~mu:0.0 ~sigma:1.0 1.0)
    (Analytical.Bayes_numeric.two_normal ~mu0:0.0 ~s0:1.0 ~mu1:2.0 ~s1:1.0 ())

let test_two_normal_identical () =
  close "indistinguishable" 0.5
    (Analytical.Bayes_numeric.two_normal ~mu0:1.0 ~s0:2.0 ~mu1:1.0 ~s1:2.0 ())

let test_two_normal_matches_numeric_integral () =
  let mu0 = 0.0 and s0 = 1.0 and mu1 = 0.5 and s1 = 1.7 in
  let f0 = Stats.Special.normal_pdf ~mu:mu0 ~sigma:s0 in
  let f1 = Stats.Special.normal_pdf ~mu:mu1 ~sigma:s1 in
  let numeric =
    Analytical.Bayes_numeric.detection_max_integral ~f0 ~f1 ~lo:(-15.0) ~hi:15.0 ()
  in
  close ~tol:1e-6 "analytic = integral" numeric
    (Analytical.Bayes_numeric.two_normal ~mu0 ~s0 ~mu1 ~s1 ())

let test_two_normal_prior_extremes () =
  (* With p0 -> 1 the rule answers class 0 almost always: v -> p0. *)
  let v =
    Analytical.Bayes_numeric.two_normal ~mu0:0.0 ~s0:1.0 ~mu1:0.1 ~s1:1.0
      ~p0:0.99 ()
  in
  Alcotest.(check bool) "v ~ p0" true (v > 0.97)

let test_two_normal_region_shapes () =
  (match
     Analytical.Bayes_numeric.two_normal_region ~mu0:0.0 ~s0:1.0 ~mu1:3.0
       ~s1:1.0 ~p0:0.5
   with
  | Analytical.Bayes_numeric.Left_of x -> close "midpoint" 1.5 x
  | _ -> Alcotest.fail "expected Left_of");
  match
    Analytical.Bayes_numeric.two_normal_region ~mu0:0.0 ~s0:1.0 ~mu1:0.0
      ~s1:2.0 ~p0:0.5
  with
  | Analytical.Bayes_numeric.Between (a, b) ->
      Alcotest.(check bool) "symmetric" true (Float.abs (a +. b) < 1e-9)
  | _ -> Alcotest.fail "expected Between for narrow class 0"

let test_sample_variance_exact_properties () =
  let v100 =
    Analytical.Bayes_numeric.sample_variance_exact ~sigma2_l:1.0 ~sigma2_h:2.0
      ~n:100
  in
  let v1000 =
    Analytical.Bayes_numeric.sample_variance_exact ~sigma2_l:1.0 ~sigma2_h:2.0
      ~n:1000
  in
  Alcotest.(check bool) "monotone in n" true (v1000 > v100);
  Alcotest.(check bool) "in (0.5, 1)" true (v100 > 0.5 && v1000 < 1.0 +. 1e-9);
  close "equal variances -> 0.5" 0.5
    (Analytical.Bayes_numeric.sample_variance_exact ~sigma2_l:1.0 ~sigma2_h:1.0
       ~n:50)

let test_sample_variance_exact_vs_simulation () =
  (* Monte-Carlo check of the exact formula at small n. *)
  let n = 10 and sigma_l = 1.0 and sigma_h = sqrt 3.0 in
  let exact =
    Analytical.Bayes_numeric.sample_variance_exact ~sigma2_l:1.0 ~sigma2_h:3.0 ~n
  in
  let rng = Prng.Rng.create ~seed:171 in
  let d =
    Analytical.Theorems.decision_threshold_variance ~sigma2_l:1.0 ~sigma2_h:3.0
  in
  let trials = 40_000 in
  let correct = ref 0 in
  for i = 1 to trials do
    let sigma = if i mod 2 = 0 then sigma_l else sigma_h in
    let xs = Array.init n (fun _ -> Prng.Sampler.normal rng ~mu:0.0 ~sigma) in
    let s2 = Stats.Descriptive.variance xs in
    let guess_low = s2 <= d in
    if guess_low = (sigma = sigma_l) then incr correct
  done;
  let simulated = float_of_int !correct /. float_of_int trials in
  close ~tol:0.02 "exact matches Monte-Carlo" exact simulated

let test_entropy_normal_approx_properties () =
  let v n =
    Analytical.Bayes_numeric.sample_entropy_normal_approx ~sigma2_l:1.0
      ~sigma2_h:2.0 ~n
  in
  Alcotest.(check bool) "monotone in n" true (v 1000 > v 100);
  Alcotest.(check bool) "above floor" true (v 100 > 0.5)

(* --- Design --- *)

let req =
  {
    Analytical.Design.sigma_gw_low = 2.2e-6;
    sigma_gw_high = 3.1e-6;
    n_max = 100_000;
    v_max = 0.55;
  }

let test_design_required_sigma_meets_budget () =
  let sigma_t = Analytical.Design.required_sigma_t req in
  Alcotest.(check bool) "positive" true (sigma_t > 0.0);
  let r =
    Analytical.Ratio.r
      (Analytical.Ratio.make ~sigma_t ~sigma_gw_low:req.Analytical.Design.sigma_gw_low
         ~sigma_gw_high:req.Analytical.Design.sigma_gw_high ())
  in
  let v = Analytical.Design.worst_feature_v ~r ~n:req.Analytical.Design.n_max in
  Alcotest.(check bool) "meets the budget" true (v <= req.Analytical.Design.v_max +. 1e-6);
  (* And is tight: 2x less sigma_t violates it. *)
  let r2 =
    Analytical.Ratio.r
      (Analytical.Ratio.make ~sigma_t:(sigma_t /. 2.0)
         ~sigma_gw_low:req.Analytical.Design.sigma_gw_low
         ~sigma_gw_high:req.Analytical.Design.sigma_gw_high ())
  in
  Alcotest.(check bool) "tight" true
    (Analytical.Design.worst_feature_v ~r:r2 ~n:req.Analytical.Design.n_max
    > req.Analytical.Design.v_max)

let test_design_cit_sufficient_case () =
  (* A toothless adversary (tiny n, loose budget): CIT already passes. *)
  let weak = { req with Analytical.Design.n_max = 2; v_max = 0.99 } in
  Alcotest.(check (float 0.0)) "sigma_t = 0" 0.0
    (Analytical.Design.required_sigma_t weak)

let test_design_monotone_in_budget () =
  let tight = Analytical.Design.required_sigma_t { req with Analytical.Design.v_max = 0.51 } in
  let loose = Analytical.Design.required_sigma_t { req with Analytical.Design.v_max = 0.80 } in
  Alcotest.(check bool) "tighter budget needs more sigma_t" true (tight > loose)

let test_design_overhead () =
  close "10pps on 10ms timer" 0.9
    (Analytical.Design.overhead_fraction ~payload_rate_pps:10.0 ~timer_mean:0.01);
  close "saturated" 0.0
    (Analytical.Design.overhead_fraction ~payload_rate_pps:200.0 ~timer_mean:0.01)

let test_design_invalid () =
  Alcotest.check_raises "v_max" (Invalid_argument "Design: v_max out of (0.5, 1)")
    (fun () ->
      ignore
        (Analytical.Design.required_sigma_t { req with Analytical.Design.v_max = 0.4 }))

let prop_theorems_bounded =
  QCheck.Test.make ~name:"all detection rates in [0.5, 1]" ~count:300
    QCheck.(pair (float_range 1.0 100.0) (int_range 2 100_000))
    (fun (r, n) ->
      let vs =
        [
          Analytical.Theorems.v_mean ~r;
          Analytical.Theorems.v_variance ~r ~n;
          Analytical.Theorems.v_entropy ~r ~n;
        ]
      in
      List.for_all (fun v -> v >= 0.5 -. 1e-12 && v <= 1.0 +. 1e-12) vs)

let prop_theorems_monotone_in_r =
  QCheck.Test.make ~name:"detection increasing in r" ~count:200
    QCheck.(triple (float_range 1.01 50.0) (float_range 1.0 2.0) (int_range 10 10_000))
    (fun (r, factor, n) ->
      let r2 = r *. factor in
      Analytical.Theorems.v_variance ~r ~n
      <= Analytical.Theorems.v_variance ~r:r2 ~n +. 1e-12
      && Analytical.Theorems.v_entropy ~r ~n
         <= Analytical.Theorems.v_entropy ~r:r2 ~n +. 1e-12
      && Analytical.Theorems.v_mean ~r
         <= Analytical.Theorems.v_mean ~r:r2 +. 1e-12)

let prop_two_normal_bounded =
  QCheck.Test.make ~name:"two-normal Bayes rate in [max(p0,p1), 1]" ~count:200
    QCheck.(
      quad (float_range (-5.0) 5.0) (float_range 0.1 5.0) (float_range (-5.0) 5.0)
        (float_range 0.1 5.0))
    (fun (mu0, s0, mu1, s1) ->
      let v = Analytical.Bayes_numeric.two_normal ~mu0 ~s0 ~mu1 ~s1 () in
      v >= 0.5 -. 1e-9 && v <= 1.0 +. 1e-9)

let suite =
  [
    Alcotest.test_case "ratio composition" `Quick test_ratio_composition;
    Alcotest.test_case "ratio pure gateway" `Quick test_ratio_cit_at_gateway;
    Alcotest.test_case "noise drives r to 1" `Quick test_ratio_noise_drives_r_to_one;
    Alcotest.test_case "ratio invalid" `Quick test_ratio_invalid;
    Alcotest.test_case "v_mean properties" `Quick test_v_mean_properties;
    Alcotest.test_case "v_mean = exact oracle" `Quick test_v_mean_matches_exact_oracle;
    Alcotest.test_case "printed Thm1 shape" `Quick test_v_mean_paper_printed_shape;
    Alcotest.test_case "C_Y values" `Quick test_c_variance_values;
    Alcotest.test_case "v_variance properties" `Quick test_v_variance_properties;
    Alcotest.test_case "v_entropy properties" `Quick test_v_entropy_properties;
    Alcotest.test_case "C_H value" `Quick test_c_entropy_value;
    Alcotest.test_case "n_for_detection inverse" `Quick test_n_for_detection;
    Alcotest.test_case "paper headline n(99%)" `Quick test_paper_headline_sample_sizes;
    Alcotest.test_case "variance threshold" `Quick test_decision_threshold_variance_between;
    Alcotest.test_case "two-normal equal variance" `Quick test_two_normal_equal_variance;
    Alcotest.test_case "two-normal identical" `Quick test_two_normal_identical;
    Alcotest.test_case "two-normal = integral" `Quick test_two_normal_matches_numeric_integral;
    Alcotest.test_case "two-normal prior extremes" `Quick test_two_normal_prior_extremes;
    Alcotest.test_case "two-normal regions" `Quick test_two_normal_region_shapes;
    Alcotest.test_case "S^2 exact properties" `Quick test_sample_variance_exact_properties;
    Alcotest.test_case "S^2 exact vs Monte-Carlo" `Quick test_sample_variance_exact_vs_simulation;
    Alcotest.test_case "entropy approx properties" `Quick test_entropy_normal_approx_properties;
    Alcotest.test_case "design meets budget" `Quick test_design_required_sigma_meets_budget;
    Alcotest.test_case "design CIT-sufficient case" `Quick test_design_cit_sufficient_case;
    Alcotest.test_case "design monotone" `Quick test_design_monotone_in_budget;
    Alcotest.test_case "design overhead" `Quick test_design_overhead;
    Alcotest.test_case "design invalid" `Quick test_design_invalid;
    QCheck_alcotest.to_alcotest prop_theorems_bounded;
    QCheck_alcotest.to_alcotest prop_theorems_monotone_in_r;
    QCheck_alcotest.to_alcotest prop_two_normal_bounded;
  ]
