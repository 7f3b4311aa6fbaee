type bracket = { lower : float; upper : float }

let bhattacharyya_gamma_same_shape ~shape ~scale0 ~scale1 =
  if shape <= 0.0 then invalid_arg "Bounds: shape <= 0";
  if scale0 <= 0.0 || scale1 <= 0.0 then invalid_arg "Bounds: scale <= 0";
  (2.0 *. sqrt (scale0 *. scale1) /. (scale0 +. scale1)) ** shape

let detection_bracket_of_rho rho =
  if rho < 0.0 || rho > 1.0 +. 1e-12 then
    invalid_arg "Bounds: rho out of [0, 1]";
  let rho = Float.min rho 1.0 in
  let err_upper = rho /. 2.0 in
  let err_lower = 0.5 *. (1.0 -. sqrt (1.0 -. (rho *. rho))) in
  { lower = 1.0 -. err_upper; upper = 1.0 -. err_lower }

let sample_variance_bracket ~sigma2_l ~sigma2_h ~n =
  if n < 2 then invalid_arg "Bounds: n < 2";
  if sigma2_l <= 0.0 then invalid_arg "Bounds: sigma2_l <= 0";
  if sigma2_h < sigma2_l then invalid_arg "Bounds: sigma2_h < sigma2_l";
  let k = float_of_int (n - 1) /. 2.0 in
  let theta_l = 2.0 *. sigma2_l /. float_of_int (n - 1) in
  let theta_h = 2.0 *. sigma2_h /. float_of_int (n - 1) in
  detection_bracket_of_rho
    (bhattacharyya_gamma_same_shape ~shape:k ~scale0:theta_l ~scale1:theta_h)
