let check_r r = if r < 1.0 then invalid_arg "Theorems: r < 1"

let phi x = Stats.Special.normal_cdf ~mu:0.0 ~sigma:1.0 x

let v_mean ~r =
  check_r r;
  if r = 1.0 then 0.5
  else
    (* Equal-mean normals N(mu, s_l^2), N(mu, s_h^2), equal priors: the
       Bayes regions are |x - mu| <= d vs > d with
       d^2 = s_l^2 * r ln r / (r - 1); a = d / s_l. *)
    let a = sqrt (r *. log r /. (r -. 1.0)) in
    phi a -. phi (a /. sqrt r) +. 0.5

(* talint: allow U001 — DESIGN.md §1 documents it as a reference *)
let v_mean_paper_printed ~r =
  check_r r;
  1.0 -. (1.0 /. (sqrt 2.0 *. ((1.0 /. sqrt r) +. sqrt r)))

let c_variance ~r =
  check_r r;
  if r = 1.0 then Float.infinity
  else
    let lr = log r in
    let a = 1.0 -. (lr /. (r -. 1.0)) in
    let b = (r /. (r -. 1.0) *. lr) -. 1.0 in
    (1.0 /. (2.0 *. a *. a)) +. (1.0 /. (2.0 *. b *. b))

let v_variance ~r ~n =
  if n < 2 then invalid_arg "Theorems.v_variance: n < 2";
  let c = c_variance ~r in
  Float.max (1.0 -. (c /. float_of_int (n - 1))) 0.5

let c_entropy ~r =
  check_r r;
  if r = 1.0 then Float.infinity
  else
    let lr = log r in
    let a = log (r /. (r -. 1.0) *. lr) in
    let b = log ((r -. 1.0) /. lr) in
    (1.0 /. (2.0 *. a *. a)) +. (1.0 /. (2.0 *. b *. b))

let v_entropy ~r ~n =
  if n < 1 then invalid_arg "Theorems.v_entropy: n < 1";
  let c = c_entropy ~r in
  Float.max (1.0 -. (c /. float_of_int n)) 0.5

let check_p p =
  if p < 0.5 || p >= 1.0 then invalid_arg "Theorems: p out of [0.5, 1)"

let n_for_detection_variance ~r ~p =
  check_p p;
  let c = c_variance ~r in
  if Float.is_finite c then (c /. (1.0 -. p)) +. 1.0 else Float.infinity

let n_for_detection_entropy ~r ~p =
  check_p p;
  let c = c_entropy ~r in
  if Float.is_finite c then c /. (1.0 -. p) else Float.infinity

let decision_threshold_variance ~sigma2_l ~sigma2_h =
  if sigma2_l <= 0.0 then invalid_arg "Theorems.decision_threshold_variance: sigma2_l <= 0";
  if sigma2_h <= sigma2_l then
    invalid_arg "Theorems.decision_threshold_variance: sigma2_h <= sigma2_l";
  let r = sigma2_h /. sigma2_l in
  sigma2_h *. log r /. (r -. 1.0)
