(* The distribution laws the library evaluates: the normal law
   (Special's pdf/cdf/quantile and the polar sampler), the chi-square
   law behind Special.gamma_p/gamma_q, and the sampling law of S^2 that
   the Theorem 2 rates integrate. *)

let close ?(tol = 1e-6) msg expected actual =
  if Float.abs (expected -. actual) > tol *. Float.max 1.0 (Float.abs expected)
  then Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let ps = [ 0.01; 0.1; 0.3; 0.5; 0.7; 0.9; 0.99 ]

let test_normal () =
  let mu = 2.0 and sigma = 1.5 in
  let cdf = Stats.Special.normal_cdf ~mu ~sigma
  and quantile = Stats.Special.normal_quantile ~mu ~sigma in
  List.iter
    (fun p ->
      close (Printf.sprintf "cdf(quantile(%.3f))" p) p (cdf (quantile p)))
    ps;
  List.iter
    (fun x ->
      let h = 1e-5 *. Float.max 1.0 (Float.abs x) in
      let numeric = (cdf (x +. h) -. cdf (x -. h)) /. (2.0 *. h) in
      close ~tol:1e-3
        (Printf.sprintf "pdf = dcdf at %.3f" x)
        numeric
        (Stats.Special.normal_pdf ~mu ~sigma x))
    [ 0.0; 1.0; 2.0; 4.0 ];
  let rng = Prng.Rng.create ~seed:71 in
  let acc = Stats.Descriptive.Acc.create () in
  for _ = 1 to 100_000 do
    Stats.Descriptive.Acc.add acc (Prng.Sampler.normal rng ~mu ~sigma)
  done;
  close ~tol:0.02 "sample mean" mu (Stats.Descriptive.Acc.mean acc);
  close ~tol:0.04 "sample variance" (sigma *. sigma)
    (Stats.Descriptive.Acc.variance acc);
  close "median = mu" 2.0 (quantile 0.5)

let test_chi_square () =
  (* chi2(dof) is a gamma law with shape dof/2 and scale 2.  Its moments
     come from the survival function: E[X] = int sf, E[X^2] = int 2x sf
     (the tail past 200 is below 1e-38). *)
  let a = 2.5 in
  let sf x = Stats.Special.gamma_q ~a ~x:(x /. 2.0) in
  let mean = Stats.Integrate.simpson sf ~lo:0.0 ~hi:200.0 in
  let second =
    Stats.Integrate.simpson (fun x -> 2.0 *. x *. sf x) ~lo:0.0 ~hi:200.0
  in
  close "mean = dof" 5.0 mean;
  close "variance = 2 dof" 10.0 (second -. (mean *. mean));
  (* chi2(5) upper 5% critical value = 11.0705 *)
  close "95th percentile" 0.95 (Stats.Special.gamma_p ~a ~x:(11.0705 /. 2.0))

let test_scaled_chi_square_is_sample_variance_law () =
  (* S^2 of n normal draws is sigma^2 chi2(n-1)/(n-1): a gamma law with
     shape (n-1)/2 and scale 2 sigma^2/(n-1), mean sigma^2 and variance
     2 sigma^4/(n-1). *)
  let n = 8 in
  let sigma2 = 4.0 in
  let dof = float_of_int (n - 1) in
  let rng = Prng.Rng.create ~seed:77 in
  let acc = Stats.Descriptive.Acc.create () in
  let below = ref 0 in
  let reps = 40_000 in
  for _ = 1 to reps do
    let xs = Array.init n (fun _ -> Prng.Sampler.normal rng ~mu:0.0 ~sigma:2.0) in
    let s2 = Stats.Descriptive.variance xs in
    Stats.Descriptive.Acc.add acc s2;
    if s2 <= sigma2 then incr below
  done;
  close ~tol:0.03 "simulated mean of S^2" sigma2 (Stats.Descriptive.Acc.mean acc);
  close ~tol:0.06 "simulated variance of S^2"
    (2.0 *. sigma2 *. sigma2 /. dof)
    (Stats.Descriptive.Acc.variance acc);
  let theta = 2.0 *. sigma2 /. dof in
  close ~tol:0.01 "P(S^2 <= sigma^2)"
    (Stats.Special.gamma_p ~a:(dof /. 2.0) ~x:(sigma2 /. theta))
    (float_of_int !below /. float_of_int reps)

let test_log_pdf_consistency () =
  List.iter
    (fun (mu, sigma) ->
      List.iter
        (fun x ->
          close ~tol:1e-9
            (Printf.sprintf "normal(%.1f, %.1f) log_pdf at %.2f" mu sigma x)
            (log (Stats.Special.normal_pdf ~mu ~sigma x))
            (Stats.Special.log_normal_pdf ~mu ~sigma x))
        [ 0.5; 1.0; 2.5 ])
    [ (1.0, 1.0); (0.0, 0.5) ]

let test_invalid_params () =
  Alcotest.check_raises "normal sigma"
    (Invalid_argument "Special.normal_cdf: sigma <= 0") (fun () ->
      ignore (Stats.Special.normal_cdf ~mu:0.0 ~sigma:0.0 0.0));
  Alcotest.check_raises "uniform order"
    (Invalid_argument "Rng.float_range: requires lo <= hi") (fun () ->
      ignore (Prng.Sampler.uniform (Prng.Rng.create ~seed:1) ~lo:1.0 ~hi:0.0));
  Alcotest.check_raises "gamma shape"
    (Invalid_argument "Special.gamma_p: a <= 0") (fun () ->
      ignore (Stats.Special.gamma_p ~a:0.0 ~x:1.0))

let suite =
  [
    Alcotest.test_case "normal" `Quick test_normal;
    Alcotest.test_case "chi-square" `Quick test_chi_square;
    Alcotest.test_case "scaled chi-square = S^2 law" `Quick
      test_scaled_chi_square_is_sample_variance_law;
    Alcotest.test_case "log_pdf consistency" `Quick test_log_pdf_consistency;
    Alcotest.test_case "invalid params" `Quick test_invalid_params;
  ]
