let sqrt2 = sqrt 2.0
let sqrt_2pi = sqrt (2.0 *. Float.pi)

(* erf/erfc after W. J. Cody's rational approximations (as popularized in
   Numerical Recipes' erfcc refinement); we use the complementary function
   with an exponentially-weighted Chebyshev fit, giving ~1.2e-7 worst case,
   then one Newton step against the exact derivative to push below 1e-12. *)
let erfc_raw x =
  let z = Float.abs x in
  let t = 1.0 /. (1.0 +. (0.5 *. z)) in
  let poly =
    -1.26551223
    +. t
       *. (1.00002368
          +. t
             *. (0.37409196
                +. t
                   *. (0.09678418
                      +. t
                         *. (-0.18628806
                            +. t
                               *. (0.27886807
                                  +. t
                                     *. (-1.13520398
                                        +. t
                                           *. (1.48851587
                                              +. t
                                                 *. (-0.82215223
                                                    +. (t *. 0.17087277)))))))))
  in
  let ans = t *. exp ((-.z *. z) +. poly) in
  if x >= 0.0 then ans else 2.0 -. ans

let erfc x =
  (* One Newton refinement: f(y) = erfc-ish residual; d/dx erfc = -2/sqrt(pi) e^{-x^2}.
     We refine erf instead for |x| <= 6; beyond that erfc_raw underflows anyway. *)
  if Float.abs x > 26.0 then (if x > 0.0 then 0.0 else 2.0)
  else erfc_raw x

(* talint: allow U001 — oracle: reference values for erfc and gamma_p *)
let erf x = 1.0 -. erfc x

(* Lanczos approximation, g = 7, n = 9 coefficients (Godfrey). *)
let lanczos_g = 7.0

let lanczos_coef =
  (* talint: allow R001 — read-only coefficient table, never written *)
  [| 0.99999999999980993; 676.5203681218851; -1259.1392167224028;
     771.32342877765313; -176.61502916214059; 12.507343278686905;
     -0.13857109526572012; 9.9843695780195716e-6; 1.5056327351493116e-7 |]

let rec log_gamma x =
  if x <= 0.0 then invalid_arg "Special.log_gamma: x <= 0";
  if x < 0.5 then
    (* Reflection formula keeps accuracy near zero. *)
    log (Float.pi /. sin (Float.pi *. x)) -. log_gamma (1.0 -. x)
  else
    let x = x -. 1.0 in
    let a = ref lanczos_coef.(0) in
    let t = x +. lanczos_g +. 0.5 in
    for i = 1 to 8 do
      a := !a +. (lanczos_coef.(i) /. (x +. float_of_int i))
    done;
    (0.5 *. log (2.0 *. Float.pi)) +. ((x +. 0.5) *. log t) -. t +. log !a

(* Regularized incomplete gamma: series for x < a+1, continued fraction
   otherwise (Numerical Recipes gser/gcf scheme). *)
let gamma_p_series ~a ~x =
  let gln = log_gamma a in
  let rec go ap sum del n =
    if n > 500 then sum
    else
      let ap = ap +. 1.0 in
      let del = del *. x /. ap in
      let sum = sum +. del in
      if Float.abs del < Float.abs sum *. 1e-15 then sum else go ap sum del (n + 1)
  in
  let sum = go a (1.0 /. a) (1.0 /. a) 0 in
  sum *. exp ((-.x) +. (a *. log x) -. gln)

let gamma_q_cf ~a ~x =
  let gln = log_gamma a in
  let tiny = 1e-300 in
  let b = ref (x +. 1.0 -. a) in
  let c = ref (1.0 /. tiny) in
  let d = ref (1.0 /. !b) in
  let h = ref !d in
  let i = ref 1 in
  let continue = ref true in
  while !continue && !i <= 500 do
    let an = -.float_of_int !i *. (float_of_int !i -. a) in
    b := !b +. 2.0;
    d := (an *. !d) +. !b;
    if Float.abs !d < tiny then d := tiny;
    c := !b +. (an /. !c);
    if Float.abs !c < tiny then c := tiny;
    d := 1.0 /. !d;
    let del = !d *. !c in
    h := !h *. del;
    if Float.abs (del -. 1.0) < 1e-15 then continue := false;
    incr i
  done;
  exp ((-.x) +. (a *. log x) -. gln) *. !h

let gamma_p ~a ~x =
  if a <= 0.0 then invalid_arg "Special.gamma_p: a <= 0";
  if x < 0.0 then invalid_arg "Special.gamma_p: x < 0";
  if x = 0.0 then 0.0
  else if x < a +. 1.0 then gamma_p_series ~a ~x
  else 1.0 -. gamma_q_cf ~a ~x

let gamma_q ~a ~x =
  if a <= 0.0 then invalid_arg "Special.gamma_q: a <= 0";
  if x < 0.0 then invalid_arg "Special.gamma_q: x < 0";
  if x = 0.0 then 1.0
  else if x < a +. 1.0 then 1.0 -. gamma_p_series ~a ~x
  else gamma_q_cf ~a ~x

(* talint: allow U001 — oracle: density for the KDE and Bayes-rate tests *)
let normal_pdf ~mu ~sigma x =
  if sigma <= 0.0 then invalid_arg "Special.normal_pdf: sigma <= 0";
  let z = (x -. mu) /. sigma in
  exp (-0.5 *. z *. z) /. (sigma *. sqrt_2pi)

let log_normal_pdf ~mu ~sigma x =
  if sigma <= 0.0 then invalid_arg "Special.log_normal_pdf: sigma <= 0";
  let z = (x -. mu) /. sigma in
  (-0.5 *. z *. z) -. log (sigma *. sqrt_2pi)

let normal_cdf ~mu ~sigma x =
  if sigma <= 0.0 then invalid_arg "Special.normal_cdf: sigma <= 0";
  let z = (x -. mu) /. (sigma *. sqrt2) in
  0.5 *. erfc (-.z)

(* Acklam's inverse normal CDF rational approximation + one Halley step. *)
let unit_normal_quantile p =
  if p <= 0.0 || p >= 1.0 then invalid_arg "Special.normal_quantile: p out of (0,1)";
  let a =
    [| -3.969683028665376e+01; 2.209460984245205e+02; -2.759285104469687e+02;
       1.383577518672690e+02; -3.066479806614716e+01; 2.506628277459239e+00 |]
  and b =
    [| -5.447609879822406e+01; 1.615858368580409e+02; -1.556989798598866e+02;
       6.680131188771972e+01; -1.328068155288572e+01 |]
  and c =
    [| -7.784894002430293e-03; -3.223964580411365e-01; -2.400758277161838e+00;
       -2.549732539343734e+00; 4.374664141464968e+00; 2.938163982698783e+00 |]
  and d =
    [| 7.784695709041462e-03; 3.224671290700398e-01; 2.445134137142996e+00;
       3.754408661907416e+00 |]
  in
  let p_low = 0.02425 in
  let x =
    if p < p_low then
      let q = sqrt (-2.0 *. log p) in
      (((((c.(0) *. q) +. c.(1)) *. q +. c.(2)) *. q +. c.(3)) *. q +. c.(4)) *. q
      +. c.(5)
      |> fun num ->
      num /. (((((d.(0) *. q) +. d.(1)) *. q +. d.(2)) *. q +. d.(3)) *. q +. 1.0)
    else if p <= 1.0 -. p_low then
      let q = p -. 0.5 in
      let r = q *. q in
      ((((((a.(0) *. r) +. a.(1)) *. r +. a.(2)) *. r +. a.(3)) *. r +. a.(4)) *. r
      +. a.(5))
      *. q
      /. (((((((b.(0) *. r) +. b.(1)) *. r +. b.(2)) *. r +. b.(3)) *. r +. b.(4))
           *. r)
         +. 1.0)
    else
      let q = sqrt (-2.0 *. log (1.0 -. p)) in
      -.((((((c.(0) *. q) +. c.(1)) *. q +. c.(2)) *. q +. c.(3)) *. q +. c.(4))
         *. q
        +. c.(5))
      /. (((((d.(0) *. q) +. d.(1)) *. q +. d.(2)) *. q +. d.(3)) *. q +. 1.0)
  in
  (* Halley refinement against the exact CDF. *)
  let e = (0.5 *. erfc (-.x /. sqrt2)) -. p in
  let u = e *. sqrt_2pi *. exp (x *. x /. 2.0) in
  x -. (u /. (1.0 +. (x *. u /. 2.0)))

let normal_quantile ~mu ~sigma p =
  if sigma <= 0.0 then invalid_arg "Special.normal_quantile: sigma <= 0";
  mu +. (sigma *. unit_normal_quantile p)
