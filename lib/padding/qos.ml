let check ~payload_rate_pps ~timer_mean =
  if payload_rate_pps < 0.0 then invalid_arg "Qos: payload_rate < 0";
  if timer_mean <= 0.0 then invalid_arg "Qos: timer_mean <= 0"

let utilization ~payload_rate_pps ~timer_mean =
  check ~payload_rate_pps ~timer_mean;
  payload_rate_pps *. timer_mean

let is_stable ~payload_rate_pps ~timer_mean =
  utilization ~payload_rate_pps ~timer_mean < 1.0

let mean_delay ~payload_rate_pps ~timer_mean =
  let rho = utilization ~payload_rate_pps ~timer_mean in
  if rho >= 1.0 then
    invalid_arg "Qos.mean_delay: unstable (payload faster than the timer)";
  (timer_mean /. 2.0) +. (timer_mean *. rho /. (2.0 *. (1.0 -. rho)))

let delay_quantile ~payload_rate_pps ~timer_mean ~p =
  if p <= 0.0 || p >= 1.0 then invalid_arg "Qos.delay_quantile: p out of (0,1)";
  let rho = utilization ~payload_rate_pps ~timer_mean in
  if rho >= 1.0 then invalid_arg "Qos.delay_quantile: unstable";
  let mean = mean_delay ~payload_rate_pps ~timer_mean in
  (* Exponential-tail surrogate with the waiting-time scale; exact M/D/1
     quantiles need the Crommelin series, overkill for budgeting. *)
  let scale = timer_mean /. (2.0 *. (1.0 -. rho)) in
  mean -. (scale *. log (1.0 -. p))

let min_timer_rate ~payload_rate_pps ~max_mean_delay =
  if payload_rate_pps < 0.0 then invalid_arg "Qos: payload_rate < 0";
  if max_mean_delay <= 0.0 then invalid_arg "Qos: max_mean_delay <= 0";
  (* mean_delay is decreasing in the timer rate f = 1/tau; bracket and
     bisect on f above the stability floor. *)
  let floor_rate = payload_rate_pps +. 1e-9 in
  let delay_at f = mean_delay ~payload_rate_pps ~timer_mean:(1.0 /. f) in
  let hi = ref (Float.max (2.0 *. floor_rate) (2.0 /. max_mean_delay)) in
  let guard = ref 0 in
  while delay_at !hi > max_mean_delay && !guard < 200 do
    hi := !hi *. 2.0;
    incr guard
  done;
  if delay_at !hi > max_mean_delay then
    invalid_arg "Qos.min_timer_rate: bound unachievable";
  let lo = ref (Float.max floor_rate 1e-9) in
  if delay_at !lo <= max_mean_delay then !lo
  else begin
    for _ = 1 to 200 do
      let mid = 0.5 *. (!lo +. !hi) in
      if delay_at mid > max_mean_delay then lo := mid else hi := mid
    done;
    !hi
  end

let overhead ~payload_rate_pps ~timer_mean =
  let rho = utilization ~payload_rate_pps ~timer_mean in
  Float.max 0.0 (Float.min 1.0 (1.0 -. rho))

let dummy_fraction ~payload_sent ~dummy_sent =
  let total = payload_sent + dummy_sent in
  if total = 0 then 0.0 else float_of_int dummy_sent /. float_of_int total
