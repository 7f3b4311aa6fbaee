type t = {
  name : string;
  pmf : int -> float;
  log_pmf : int -> float;
  cdf : int -> float;
  mean : float;
  variance : float;
  sample : Prng.Rng.t -> int;
}

let poisson ~mean =
  if mean <= 0.0 then invalid_arg "Discrete.poisson: mean <= 0";
  let log_pmf k =
    if k < 0 then Float.neg_infinity
    else
      (float_of_int k *. log mean) -. mean
      -. Special.log_gamma (float_of_int k +. 1.0)
  in
  {
    name = Printf.sprintf "poisson(%.6g)" mean;
    pmf = (fun k -> if k < 0 then 0.0 else exp (log_pmf k));
    log_pmf;
    cdf =
      (fun k ->
        if k < 0 then 0.0
        else Special.gamma_q ~a:(float_of_int (k + 1)) ~x:mean);
    mean;
    variance = mean;
    sample = (fun rng -> Prng.Sampler.poisson rng ~mean);
  }

let bayes_detection_two d0 d1 ?(p0 = 0.5) ?k_max () =
  if p0 <= 0.0 || p0 >= 1.0 then invalid_arg "Discrete: p0 out of (0,1)";
  let p1 = 1.0 -. p0 in
  let k_max =
    match k_max with
    | Some k when k >= 0 -> k
    | Some _ -> invalid_arg "Discrete: k_max < 0"
    | None ->
        let reach d = d.mean +. (12.0 *. sqrt (Float.max d.variance 1.0)) in
        int_of_float (Float.ceil (Float.max (reach d0) (reach d1)))
  in
  let acc = ref 0.0 in
  for k = 0 to k_max do
    acc := !acc +. Float.max (p0 *. d0.pmf k) (p1 *. d1.pmf k)
  done;
  Float.min 1.0 !acc
