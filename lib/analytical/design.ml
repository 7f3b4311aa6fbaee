type requirement = {
  sigma_gw_low : float;
  sigma_gw_high : float;
  n_max : int;
  v_max : float;
}

let validate req =
  if req.sigma_gw_low <= 0.0 then invalid_arg "Design: sigma_gw_low <= 0";
  if req.sigma_gw_high < req.sigma_gw_low then
    invalid_arg "Design: sigma_gw_high < sigma_gw_low";
  if req.n_max < 2 then invalid_arg "Design: n_max < 2";
  if req.v_max <= 0.5 || req.v_max >= 1.0 then
    invalid_arg "Design: v_max out of (0.5, 1)"

let worst_feature_v ~r ~n =
  let v_var = Theorems.v_variance ~r ~n in
  let v_ent = Theorems.v_entropy ~r ~n in
  let v_mean = Theorems.v_mean ~r in
  Float.max v_var (Float.max v_ent v_mean)

let r_of_sigma_t req sigma_t =
  Ratio.r
    (Ratio.make ~sigma_t ~sigma_gw_low:req.sigma_gw_low
       ~sigma_gw_high:req.sigma_gw_high ())

let required_sigma_t req =
  validate req;
  let v_at sigma_t = worst_feature_v ~r:(r_of_sigma_t req sigma_t) ~n:req.n_max in
  if v_at 0.0 <= req.v_max then 0.0
  else begin
    (* Find an upper bracket by doubling; v is decreasing in sigma_t and
       tends to 0.5 < v_max, so this terminates. *)
    let hi = ref req.sigma_gw_high in
    while v_at !hi > req.v_max do
      hi := !hi *. 2.0
    done;
    let root =
      Stats.Rootfind.bisect ~eps:1e-12 (fun s -> v_at s -. req.v_max) ~lo:0.0
        ~hi:!hi
    in
    (* The midpoint can sit a hair on the violating side; return a value
       that provably satisfies the budget. *)
    let rec ensure s step k =
      if k > 100 || v_at s <= req.v_max then s
      else ensure (s *. (1.0 +. step)) (step *. 2.0) (k + 1)
    in
    ensure root 1e-12 0
  end

let overhead_fraction ~payload_rate_pps ~timer_mean =
  if payload_rate_pps < 0.0 then invalid_arg "Design: payload_rate < 0";
  if timer_mean <= 0.0 then invalid_arg "Design: timer_mean <= 0";
  Float.max 0.0 (Float.min 1.0 (1.0 -. (payload_rate_pps *. timer_mean)))
