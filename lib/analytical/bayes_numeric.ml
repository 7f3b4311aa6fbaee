type region =
  | Everywhere
  | Nowhere
  | Right_of of float
  | Left_of of float
  | Between of float * float
  | Outside of float * float

(* Class-0 region of the two-normal Bayes rule: solve
   A x^2 + B x + C >= 0 where the quadratic is
   ln p0 + ln f0 - ln p1 - ln f1. *)
let two_normal_region ~mu0 ~s0 ~mu1 ~s1 ~p0 =
  if s0 <= 0.0 || s1 <= 0.0 then invalid_arg "Bayes_numeric: sigma <= 0";
  if p0 <= 0.0 || p0 >= 1.0 then invalid_arg "Bayes_numeric: p0 out of (0,1)";
  let p1 = 1.0 -. p0 in
  let a = (1.0 /. (2.0 *. s1 *. s1)) -. (1.0 /. (2.0 *. s0 *. s0)) in
  let b = (mu0 /. (s0 *. s0)) -. (mu1 /. (s1 *. s1)) in
  let c =
    log (p0 /. p1) +. log (s1 /. s0)
    -. (mu0 *. mu0 /. (2.0 *. s0 *. s0))
    +. (mu1 *. mu1 /. (2.0 *. s1 *. s1))
  in
  if a = 0.0 then begin
    if b = 0.0 then if c >= 0.0 then Everywhere else Nowhere
    else
      let x = -.c /. b in
      if b > 0.0 then Right_of x else Left_of x
  end
  else begin
    let disc = (b *. b) -. (4.0 *. a *. c) in
    if disc <= 0.0 then if a > 0.0 then Everywhere else Nowhere
    else begin
      let sq = sqrt disc in
      let x1 = (-.b -. sq) /. (2.0 *. a) and x2 = (-.b +. sq) /. (2.0 *. a) in
      let lo = Float.min x1 x2 and hi = Float.max x1 x2 in
      if a > 0.0 then Outside (lo, hi) else Between (lo, hi)
    end
  end

let prob_region ~cdf = function
  | Everywhere -> 1.0
  | Nowhere -> 0.0
  | Right_of x -> 1.0 -. cdf x
  | Left_of x -> cdf x
  | Between (a, b) -> cdf b -. cdf a
  | Outside (a, b) -> 1.0 -. (cdf b -. cdf a)

let two_normal ~mu0 ~s0 ~mu1 ~s1 ?(p0 = 0.5) () =
  let region = two_normal_region ~mu0 ~s0 ~mu1 ~s1 ~p0 in
  let cdf0 = Stats.Special.normal_cdf ~mu:mu0 ~sigma:s0 in
  let cdf1 = Stats.Special.normal_cdf ~mu:mu1 ~sigma:s1 in
  (p0 *. prob_region ~cdf:cdf0 region)
  +. ((1.0 -. p0) *. (1.0 -. prob_region ~cdf:cdf1 region))

let sample_mean_exact ~sigma_l ~sigma_h =
  if sigma_l <= 0.0 then invalid_arg "Bayes_numeric.sample_mean_exact: sigma_l <= 0";
  if sigma_h < sigma_l then
    invalid_arg "Bayes_numeric.sample_mean_exact: sigma_h < sigma_l";
  (* Sample size scales both sigmas by 1/sqrt n and cancels. *)
  two_normal ~mu0:0.0 ~s0:sigma_l ~mu1:0.0 ~s1:sigma_h ()

let sample_variance_exact ~sigma2_l ~sigma2_h ~n =
  if n < 2 then invalid_arg "Bayes_numeric.sample_variance_exact: n < 2";
  if sigma2_l <= 0.0 then
    invalid_arg "Bayes_numeric.sample_variance_exact: sigma2_l <= 0";
  if sigma2_h < sigma2_l then
    invalid_arg "Bayes_numeric.sample_variance_exact: sigma2_h < sigma2_l";
  if sigma2_h = sigma2_l then 0.5
  else begin
    (* S^2 ~ Gamma(k, theta_i), k = (n-1)/2, theta_i = 2 sigma_i^2/(n-1).
       Likelihood ratio of same-shape gammas is monotone; the single
       crossing solves k ln(theta_h/theta_l) = d (1/theta_l - 1/theta_h). *)
    let k = float_of_int (n - 1) /. 2.0 in
    let theta_l = 2.0 *. sigma2_l /. float_of_int (n - 1) in
    let theta_h = 2.0 *. sigma2_h /. float_of_int (n - 1) in
    let d =
      k *. log (theta_h /. theta_l) /. ((1.0 /. theta_l) -. (1.0 /. theta_h))
    in
    let cdf_l = Stats.Special.gamma_p ~a:k ~x:(d /. theta_l) in
    let cdf_h = Stats.Special.gamma_p ~a:k ~x:(d /. theta_h) in
    (0.5 *. cdf_l) +. (0.5 *. (1.0 -. cdf_h))
  end

let sample_entropy_normal_approx ~sigma2_l ~sigma2_h ~n =
  if n < 1 then invalid_arg "Bayes_numeric.sample_entropy_normal_approx: n < 1";
  if sigma2_l <= 0.0 then
    invalid_arg "Bayes_numeric.sample_entropy_normal_approx: sigma2_l <= 0";
  if sigma2_h < sigma2_l then
    invalid_arg "Bayes_numeric.sample_entropy_normal_approx: sigma2_h < sigma2_l";
  let h_of s2 = 0.5 *. log (2.0 *. Float.pi *. Float.exp 1.0 *. s2) in
  let s = sqrt (1.0 /. (2.0 *. float_of_int n)) in
  two_normal ~mu0:(h_of sigma2_l) ~s0:s ~mu1:(h_of sigma2_h) ~s1:s ()

(* talint: allow U001 — oracle: numeric check of the two-normal rate *)
let detection_max_integral ~f0 ~f1 ?(p0 = 0.5) ~lo ~hi () =
  if p0 <= 0.0 || p0 >= 1.0 then invalid_arg "Bayes_numeric: p0 out of (0,1)";
  let p1 = 1.0 -. p0 in
  Stats.Integrate.simpson ~eps:1e-10
    (fun x -> Float.max (p0 *. f0 x) (p1 *. f1 x))
    ~lo ~hi
