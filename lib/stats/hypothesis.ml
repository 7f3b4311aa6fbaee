type result = { statistic : float; p_value : float }

let kolmogorov_sf lambda =
  if lambda <= 0.0 then 1.0
  else begin
    let acc = ref 0.0 in
    let k = ref 1 in
    let continue = ref true in
    while !continue && !k <= 100 do
      let fk = float_of_int !k in
      let term =
        (if !k mod 2 = 1 then 1.0 else -1.0)
        *. exp (-2.0 *. fk *. fk *. lambda *. lambda)
      in
      acc := !acc +. term;
      if Float.abs term < 1e-12 then continue := false;
      incr k
    done;
    Float.max 0.0 (Float.min 1.0 (2.0 *. !acc))
  end

let ks_test xs ~cdf =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Hypothesis.ks_test: empty";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let fn = float_of_int n in
  let d = ref 0.0 in
  Array.iteri
    (fun i x ->
      let f = cdf x in
      let d_plus = (float_of_int (i + 1) /. fn) -. f in
      let d_minus = f -. (float_of_int i /. fn) in
      d := Float.max !d (Float.max d_plus d_minus))
    sorted;
  let sqrt_n = sqrt fn in
  (* Stephens' finite-n correction before evaluating the asymptotic law. *)
  let lambda = (sqrt_n +. 0.12 +. (0.11 /. sqrt_n)) *. !d in
  { statistic = !d; p_value = kolmogorov_sf lambda }

let jarque_bera xs =
  let n = Array.length xs in
  if n < 8 then invalid_arg "Hypothesis.jarque_bera: need n >= 8";
  let acc = Descriptive.Acc.create () in
  Array.iter (Descriptive.Acc.add acc) xs;
  let s = Descriptive.Acc.skewness acc in
  let k = Descriptive.Acc.kurtosis_excess acc in
  let fn = float_of_int n in
  let jb = fn /. 6.0 *. ((s *. s) +. (k *. k /. 4.0)) in
  (* JB ~ chi2(2): survival = exp(-jb/2). *)
  { statistic = jb; p_value = exp (-.jb /. 2.0) }

(* talint: allow U001 — oracle: goodness-of-fit test for the live samplers *)
let chi_square_gof ~observed ~expected =
  let bins = Array.length observed in
  if bins = 0 then invalid_arg "Hypothesis.chi_square_gof: empty";
  if Array.length expected <> bins then
    invalid_arg "Hypothesis.chi_square_gof: length mismatch";
  let stat = ref 0.0 in
  Array.iteri
    (fun i o ->
      let e = expected.(i) in
      if e <= 0.0 then invalid_arg "Hypothesis.chi_square_gof: expected <= 0";
      let diff = float_of_int o -. e in
      stat := !stat +. (diff *. diff /. e))
    observed;
  let dof = bins - 1 in
  let p_value =
    if dof = 0 then 1.0
    else Special.gamma_q ~a:(float_of_int dof /. 2.0) ~x:(!stat /. 2.0)
  in
  { statistic = !stat; p_value }
