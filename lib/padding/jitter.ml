type t =
  | None_
  | Parametric of { mu : float; sigma : float }
  | Mechanistic of {
      context_switch_mu : float;
      context_switch_sigma : float;
      payload_extra_mu : float;
      payload_extra_sigma : float;
      irq_rate : float; (* 1 / irq_delay_mean; 0 turns blocking off *)
    }

let irq_window = 50e-6

let none = None_

(* [not (x >= 0.0)] so a NaN parameter fails too, then [Float.is_finite]
   for an infinite one, as [Timer.validate] checks a law. *)
let check fn ~negative name x =
  if not (x >= 0.0) then invalid_arg negative;
  if not (Float.is_finite x) then
    invalid_arg (Printf.sprintf "Jitter.%s: %s not finite" fn name)

let parametric ~mu ~sigma =
  check "parametric" ~negative:"Jitter.parametric: mu < 0" "mu" mu;
  check "parametric" ~negative:"Jitter.parametric: sigma < 0" "sigma" sigma;
  Parametric { mu; sigma }

let mechanistic ?(context_switch_mu = 3e-6) ?(context_switch_sigma = 1.0e-6)
    ?(payload_extra_mu = 4e-6) ?(payload_extra_sigma = 1.2e-6)
    ?(irq_delay_mean = 2e-6) () =
  let check =
    check "mechanistic" ~negative:"Jitter.mechanistic: negative parameter"
  in
  check "context_switch_mu" context_switch_mu;
  check "context_switch_sigma" context_switch_sigma;
  check "payload_extra_mu" payload_extra_mu;
  check "payload_extra_sigma" payload_extra_sigma;
  check "irq_delay_mean" irq_delay_mean;
  Mechanistic
    {
      context_switch_mu;
      context_switch_sigma;
      payload_extra_mu;
      payload_extra_sigma;
      irq_rate = (if irq_delay_mean > 0.0 then 1.0 /. irq_delay_mean else 0.0);
    }

(* Every draw is written into [dst.(i)] and read back, so no float
   crosses a module boundary boxed: the parameters are passed as stored.
   The draws come in the order base, payload path, then one exponential
   per arrival in the window, summed left to right: ((0 + d1) + d2) + ... *)
let latency_into t rng ~sends_payload ~arrivals_in_window dst i =
  match t with
  | None_ -> Float.Array.set dst i 0.0
  | Parametric { mu; sigma } ->
      Prng.Sampler.normal_into rng ~mu ~sigma dst i;
      Float.Array.set dst i (Float.max 0.0 (Float.Array.get dst i))
  | Mechanistic m ->
      Prng.Sampler.normal_into rng ~mu:m.context_switch_mu
        ~sigma:m.context_switch_sigma dst i;
      let base = Float.Array.get dst i in
      let path =
        if sends_payload then begin
          Prng.Sampler.normal_into rng ~mu:m.payload_extra_mu
            ~sigma:m.payload_extra_sigma dst i;
          Float.Array.get dst i
        end
        else 0.0
      in
      let blocking = ref 0.0 in
      if m.irq_rate > 0.0 then
        for _ = 1 to arrivals_in_window do
          Prng.Sampler.exponential_into rng ~rate:m.irq_rate dst i;
          blocking := !blocking +. Float.Array.get dst i
        done;
      Float.Array.set dst i (Float.max 0.0 (base +. path +. !blocking))
