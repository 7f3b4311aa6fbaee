let uniform rng ~lo ~hi = Rng.float_range rng ~lo ~hi

(* Marsaglia polar method.  We deliberately do not cache the second variate:
   the cache would make output order depend on call history, which breaks
   reproducibility when generators are split mid-stream. *)
let rec standard_normal rng =
  let u = Rng.float_range rng ~lo:(-1.0) ~hi:1.0 in
  let v = Rng.float_range rng ~lo:(-1.0) ~hi:1.0 in
  let s = (u *. u) +. (v *. v) in
  if s >= 1.0 || s = 0.0 then standard_normal rng
  else u *. sqrt (-2.0 *. log s /. s)

let normal rng ~mu ~sigma =
  (* [not (sigma >= 0)] rather than [sigma < 0]: NaN must not slip through. *)
  if not (sigma >= 0.0) then invalid_arg "Sampler.normal: sigma < 0";
  if Float.is_nan mu then invalid_arg "Sampler.normal: mu is NaN";
  if sigma = 0.0 then mu else mu +. (sigma *. standard_normal rng)

(* For mu/sigma >= ~1e-2 plain rejection terminates fast; the fuse guards
   against pathological parameterizations.  Top-level (not an inner [let
   rec] closing over the locals) so the VIT timer draw stays on the
   allocation-free A001 path of the fused scenario kernels. *)
let rec truncated_draw rng ~mu ~sigma attempts =
  if attempts > 10_000 then mu
  else
    let x = normal rng ~mu ~sigma in
    if x > 0.0 then x else truncated_draw rng ~mu ~sigma (attempts + 1)

let truncated_normal_pos rng ~mu ~sigma =
  if not (mu > 0.0) then invalid_arg "Sampler.truncated_normal_pos: mu <= 0";
  if not (sigma >= 0.0) then
    invalid_arg "Sampler.truncated_normal_pos: sigma < 0";
  if sigma = 0.0 then mu else truncated_draw rng ~mu ~sigma 0

let exponential rng ~rate =
  (* [not (rate > 0)] rather than [rate <= 0]: NaN must not slip through. *)
  if not (rate > 0.0) then invalid_arg "Sampler.exponential: rate <= 0";
  -.log (Rng.float_pos rng) /. rate

let exponential_fill rng ~rate buf ~n =
  if not (rate > 0.0) then invalid_arg "Sampler.exponential_fill: rate <= 0";
  if Float.Array.length buf = 0 then
    invalid_arg "Sampler.exponential_fill: zero-length buffer";
  if n < 1 || n > Float.Array.length buf then
    invalid_arg "Sampler.exponential_fill: n out of [1, length buf]";
  (* The uniforms first, then [exponential]'s expression in place, minus
     the per-draw validation: the filled buffer is bit-identical to n
     scalar calls on the same rng, and no draw crosses a module boundary
     as a boxed float. *)
  Rng.float_pos_fill rng buf ~n;
  for i = 0 to n - 1 do
    Float.Array.unsafe_set buf i (-.log (Float.Array.unsafe_get buf i) /. rate)
  done

let pareto rng ~shape ~scale =
  if not (shape > 0.0) then invalid_arg "Sampler.pareto: shape <= 0";
  if not (scale > 0.0) then invalid_arg "Sampler.pareto: scale <= 0";
  scale /. (Rng.float_pos rng ** (1.0 /. shape))

let poisson rng ~mean =
  (* A NaN mean would never end the multiplication loop below. *)
  if not (mean >= 0.0) then invalid_arg "Sampler.poisson: mean < 0";
  if mean = 0.0 then 0
  else if mean > 60.0 then
    (* Normal approximation; adequate for the cross-traffic batch sizes
       used in the scenarios and avoids O(mean) work. *)
    let x = normal rng ~mu:mean ~sigma:(sqrt mean) in
    Stdlib.max 0 (int_of_float (Float.round x))
  else
    let limit = exp (-.mean) in
    let rec count k prod =
      let prod = prod *. Rng.float rng in
      if prod <= limit then k else count (k + 1) prod
    in
    count 0 1.0

let geometric rng ~p =
  (* NaN slips through both range comparisons (every NaN compare is
     false), and the p = 1.0 boundary must short-circuit before the log
     path — log (1.0 -. 1.0) = -inf would otherwise poison the divide. *)
  if Float.is_nan p || p <= 0.0 || p > 1.0 then
    invalid_arg "Sampler.geometric: p out of (0,1]";
  if p = 1.0 then 0
  else
    let u = Rng.float_pos rng in
    int_of_float (Float.floor (log u /. log (1.0 -. p)))

let bernoulli rng ~p =
  if not (p >= 0.0 && p <= 1.0) then
    invalid_arg "Sampler.bernoulli: p out of [0,1]";
  Rng.float rng < p

let categorical rng ~weights =
  let total = Array.fold_left (fun acc w ->
      if not (w >= 0.0) then
        invalid_arg "Sampler.categorical: negative or NaN weight";
      acc +. w) 0.0 weights
  in
  if total <= 0.0 then invalid_arg "Sampler.categorical: no positive weight";
  let x = Rng.float rng *. total in
  let n = Array.length weights in
  let rec scan i acc =
    if i = n - 1 then i
    else
      let acc = acc +. weights.(i) in
      if x < acc then i else scan (i + 1) acc
  in
  scan 0 0.0

let shuffle rng arr =
  let n = Array.length arr in
  for i = n - 1 downto 1 do
    let j = Rng.int rng ~bound:(i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
