let check ~payload_rate_pps ~timer_mean =
  if payload_rate_pps < 0.0 then invalid_arg "Qos: payload_rate < 0";
  if timer_mean <= 0.0 then invalid_arg "Qos: timer_mean <= 0"

let utilization ~payload_rate_pps ~timer_mean =
  check ~payload_rate_pps ~timer_mean;
  payload_rate_pps *. timer_mean

let mean_delay ~payload_rate_pps ~timer_mean =
  let rho = utilization ~payload_rate_pps ~timer_mean in
  if rho >= 1.0 then
    invalid_arg "Qos.mean_delay: unstable (payload faster than the timer)";
  (timer_mean /. 2.0) +. (timer_mean *. rho /. (2.0 *. (1.0 -. rho)))

let overhead ~payload_rate_pps ~timer_mean =
  let rho = utilization ~payload_rate_pps ~timer_mean in
  Float.max 0.0 (Float.min 1.0 (1.0 -. rho))

let dummy_fraction ~payload_sent ~dummy_sent =
  let total = payload_sent + dummy_sent in
  if total = 0 then 0.0 else float_of_int dummy_sent /. float_of_int total
