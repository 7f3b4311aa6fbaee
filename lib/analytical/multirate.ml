let check_sigma2s sigma2s =
  let m = Array.length sigma2s in
  if m < 2 then invalid_arg "Multirate: need >= 2 classes";
  Array.iter
    (fun v -> if v <= 0.0 then invalid_arg "Multirate: variance <= 0")
    sigma2s

let check_increasing sigma2s =
  check_sigma2s sigma2s;
  for i = 0 to Array.length sigma2s - 2 do
    if sigma2s.(i + 1) <= sigma2s.(i) then
      invalid_arg "Multirate: variances must be strictly increasing"
  done

(* Crossing of the same-shape gamma laws of S^2 for adjacent classes:
   identical to the two-class threshold with those variances. *)
let thresholds_variance ~sigma2s ~n =
  check_increasing sigma2s;
  if n < 2 then invalid_arg "Multirate: n < 2";
  Array.init
    (Array.length sigma2s - 1)
    (fun i ->
      Theorems.decision_threshold_variance ~sigma2_l:sigma2s.(i)
        ~sigma2_h:sigma2s.(i + 1))

let gamma_cdf ~sigma2 ~n x =
  let k = float_of_int (n - 1) /. 2.0 in
  let theta = 2.0 *. sigma2 /. float_of_int (n - 1) in
  if x <= 0.0 then 0.0 else Stats.Special.gamma_p ~a:k ~x:(x /. theta)

let confusion_variance_exact ~sigma2s ~n =
  let thresholds = thresholds_variance ~sigma2s ~n in
  let m = Array.length sigma2s in
  Array.init m (fun truth ->
      Array.init m (fun decision ->
          let lo = if decision = 0 then 0.0 else thresholds.(decision - 1) in
          let cdf_lo = gamma_cdf ~sigma2:sigma2s.(truth) ~n lo in
          let cdf_hi =
            if decision = m - 1 then 1.0
            else gamma_cdf ~sigma2:sigma2s.(truth) ~n thresholds.(decision)
          in
          Float.max 0.0 (cdf_hi -. cdf_lo)))

let mary_variance_exact ~sigma2s ~n =
  let confusion = confusion_variance_exact ~sigma2s ~n in
  let m = Array.length sigma2s in
  let acc = ref 0.0 in
  for i = 0 to m - 1 do
    acc := !acc +. confusion.(i).(i)
  done;
  !acc /. float_of_int m
