type law =
  | Constant of float
  | Normal of { mean : float; sigma : float }
  | Uniform of { mean : float; half_width : float }
  | Exponential of { mean : float }

let mean = function
  | Constant tau -> tau
  | Normal { mean; _ } -> mean
  | Uniform { mean; _ } -> mean
  | Exponential { mean } -> mean

let sigma = function
  | Constant _ -> 0.0
  | Normal { sigma; _ } -> sigma
  | Uniform { half_width; _ } -> half_width /. sqrt 3.0
  | Exponential { mean } -> mean

(* Written as [not (x > 0.0)] so a NaN parameter fails too; every
   parameter shows in [mean] or [sigma], so their finiteness covers an
   infinite one. *)
let validate law =
  (match law with
  | Constant tau ->
      if not (tau > 0.0) then invalid_arg "Timer: constant period <= 0"
  | Normal { mean; sigma } ->
      if not (mean > 0.0) then invalid_arg "Timer: normal mean <= 0";
      if not (sigma >= 0.0) then invalid_arg "Timer: normal sigma < 0"
  | Uniform { mean; half_width } ->
      if not (mean > 0.0) then invalid_arg "Timer: uniform mean <= 0";
      if not (half_width > 0.0 && half_width < mean) then
        invalid_arg "Timer: uniform half_width out of (0, mean)"
  | Exponential { mean } ->
      if not (mean > 0.0) then invalid_arg "Timer: exponential mean <= 0");
  if not (Float.is_finite (mean law) && Float.is_finite (sigma law)) then
    invalid_arg "Timer: parameter not finite"

(* The law with its derived parameters computed once: the bounds of a
   uniform, the rate of an exponential.  A float computed at each draw
   and passed to a [Sampler] function is boxed (modules are compiled
   [-opaque]); one stored here is passed as it is. *)
type sampler =
  | Fixed of float
  | Truncated of { mu : float; sigma : float }
  | Between of { lo : float; hi : float }
  | Rate of float

let sampler = function
  | Constant tau -> Fixed tau
  | Normal { mean; sigma } ->
      if sigma = 0.0 then Fixed mean else Truncated { mu = mean; sigma }
  | Uniform { mean; half_width } ->
      Between { lo = mean -. half_width; hi = mean +. half_width }
  | Exponential { mean } -> Rate (1.0 /. mean)

let draw_into s rng dst i =
  match s with
  | Fixed tau -> Float.Array.set dst i tau
  | Truncated { mu; sigma } ->
      Prng.Sampler.truncated_normal_pos_into rng ~mu ~sigma dst i
  | Between { lo; hi } -> Prng.Sampler.uniform_into rng ~lo ~hi dst i
  | Rate rate -> Prng.Sampler.exponential_into rng ~rate dst i
