type interval = { lo : float; hi : float }

let check_binomial ~successes ~trials ~confidence =
  if trials < 1 then invalid_arg "Confidence: trials < 1";
  if successes < 0 || successes > trials then
    invalid_arg "Confidence: successes out of [0, trials]";
  if confidence <= 0.0 || confidence >= 1.0 then
    invalid_arg "Confidence: confidence out of (0, 1)"

let z_of confidence =
  Special.normal_quantile ~mu:0.0 ~sigma:1.0 (1.0 -. ((1.0 -. confidence) /. 2.0))

let wilson ~successes ~trials ~confidence =
  check_binomial ~successes ~trials ~confidence;
  let z = z_of confidence in
  let n = float_of_int trials in
  let p = float_of_int successes /. n in
  let z2 = z *. z in
  let denom = 1.0 +. (z2 /. n) in
  let center = (p +. (z2 /. (2.0 *. n))) /. denom in
  let half =
    z /. denom *. sqrt ((p *. (1.0 -. p) /. n) +. (z2 /. (4.0 *. n *. n)))
  in
  { lo = Float.max 0.0 (center -. half); hi = Float.min 1.0 (center +. half) }

(* talint: allow U001 — tests read it to observe the live Wilson interval *)
let contains i x = x >= i.lo && x <= i.hi
(* talint: allow U001 — tests read it to observe the live Wilson interval *)
let width i = i.hi -. i.lo
