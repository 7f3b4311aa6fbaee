(* The cores below draw through [Rng.bits53], an int, and are
   [@inline]: an [Rng] function returning a float boxes it (modules are
   compiled [-opaque], so no call across modules is inlined).  A scalar
   sampler boxes only its result, an [_into] form nothing.  [u01],
   [u01_pos] and [range] are [Rng.float], [Rng.float_pos] and
   [Rng.float_range] with the same float operations in the same order,
   so every variate is bit-identical to one drawn through those. *)

let[@inline] u01 rng = float_of_int (Rng.bits53 rng) *. 0x1.0p-53

let[@inline] u01_pos rng =
  let b = ref (Rng.bits53 rng) in
  while !b = 0 do
    b := Rng.bits53 rng
  done;
  float_of_int !b *. 0x1.0p-53

let[@inline] range rng ~lo ~hi = lo +. ((hi -. lo) *. u01 rng)

(* [not (lo <= hi)] rather than [lo > hi]: NaN must not slip through.
   The message is [Rng.float_range]'s, whose draw this is. *)
let uniform_into rng ~lo ~hi dst i =
  if not (lo <= hi) then invalid_arg "Rng.float_range: requires lo <= hi";
  Float.Array.set dst i (range rng ~lo ~hi)

(* Marsaglia polar method.  We deliberately do not cache the second variate:
   the cache would make output order depend on call history, which breaks
   reproducibility when generators are split mid-stream. *)
let[@inline] standard_normal rng =
  let u = ref 0.0 and s = ref 0.0 in
  while
    u := range rng ~lo:(-1.0) ~hi:1.0;
    let v = range rng ~lo:(-1.0) ~hi:1.0 in
    s := (!u *. !u) +. (v *. v);
    !s >= 1.0 || !s = 0.0
  do
    ()
  done;
  !u *. sqrt (-2.0 *. log !s /. !s)

(* [not (sigma >= 0)] rather than [sigma < 0]: NaN must not slip through. *)
let[@inline] check_normal ~mu ~sigma =
  if not (sigma >= 0.0) then invalid_arg "Sampler.normal: sigma < 0";
  if Float.is_nan mu then invalid_arg "Sampler.normal: mu is NaN"

(* For [sigma <> 0]; at [sigma = 0] every normal sampler returns [mu]
   and draws nothing.  The [_into] forms store in each branch: an [if]
   joining [mu], a boxed argument, with a computed float would box the
   computed one. *)
let[@inline] normal_core rng ~mu ~sigma = mu +. (sigma *. standard_normal rng)

let normal rng ~mu ~sigma =
  check_normal ~mu ~sigma;
  if sigma = 0.0 then mu else normal_core rng ~mu ~sigma

let normal_into rng ~mu ~sigma dst i =
  check_normal ~mu ~sigma;
  if sigma = 0.0 then Float.Array.set dst i mu
  else Float.Array.set dst i (normal_core rng ~mu ~sigma)

(* Gaussian conditioned on being strictly positive, by rejection.  For
   mu/sigma >= ~1e-2 plain rejection terminates fast; the fuse (10 001
   draws, then [mu]) guards against pathological parameterizations. *)
let[@inline] truncated_core rng ~mu ~sigma =
  let x = ref (normal_core rng ~mu ~sigma) and retries = ref 0 in
  while (not (!x > 0.0)) && !retries < 10_000 do
    x := normal_core rng ~mu ~sigma;
    incr retries
  done;
  if not (!x > 0.0) then x := mu;
  !x

let truncated_normal_pos_into rng ~mu ~sigma dst i =
  if not (mu > 0.0) then invalid_arg "Sampler.truncated_normal_pos: mu <= 0";
  if not (sigma >= 0.0) then
    invalid_arg "Sampler.truncated_normal_pos: sigma < 0";
  if sigma = 0.0 then Float.Array.set dst i mu
  else Float.Array.set dst i (truncated_core rng ~mu ~sigma)

let[@inline] exponential_core rng ~rate = -.log (u01_pos rng) /. rate

(* [not (rate > 0)] rather than [rate <= 0]: NaN must not slip through. *)
let exponential rng ~rate =
  if not (rate > 0.0) then invalid_arg "Sampler.exponential: rate <= 0";
  exponential_core rng ~rate

let exponential_into rng ~rate dst i =
  if not (rate > 0.0) then invalid_arg "Sampler.exponential: rate <= 0";
  Float.Array.set dst i (exponential_core rng ~rate)

let exponential_fill rng ~rate buf ~n =
  if not (rate > 0.0) then invalid_arg "Sampler.exponential_fill: rate <= 0";
  if Float.Array.length buf = 0 then
    invalid_arg "Sampler.exponential_fill: zero-length buffer";
  if n < 1 || n > Float.Array.length buf then
    invalid_arg "Sampler.exponential_fill: n out of [1, length buf]";
  (* The uniforms first, then [exponential]'s expression in place, minus
     the per-draw validation: the filled buffer is bit-identical to n
     scalar calls on the same rng. *)
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

let bernoulli rng ~p =
  if not (p >= 0.0 && p <= 1.0) then
    invalid_arg "Sampler.bernoulli: p out of [0,1]";
  Rng.float rng < p

let shuffle rng arr =
  let n = Array.length arr in
  for i = n - 1 downto 1 do
    let j = Rng.int rng ~bound:(i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
