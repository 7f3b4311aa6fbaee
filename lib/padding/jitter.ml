type t =
  | None_
  | Parametric of { mu : float; sigma : float }
  | Mechanistic of {
      context_switch_mu : float;
      context_switch_sigma : float;
      payload_extra_mu : float;
      payload_extra_sigma : float;
      irq_delay_mean : float;
    }

let irq_window = 50e-6

let none = None_

let parametric ~mu ~sigma =
  if mu < 0.0 then invalid_arg "Jitter.parametric: mu < 0";
  if sigma < 0.0 then invalid_arg "Jitter.parametric: sigma < 0";
  Parametric { mu; sigma }

let mechanistic ?(context_switch_mu = 3e-6) ?(context_switch_sigma = 1.0e-6)
    ?(payload_extra_mu = 4e-6) ?(payload_extra_sigma = 1.2e-6)
    ?(irq_delay_mean = 2e-6) () =
  if
    context_switch_mu < 0.0 || context_switch_sigma < 0.0
    || payload_extra_mu < 0.0 || payload_extra_sigma < 0.0
    || irq_delay_mean < 0.0
  then invalid_arg "Jitter.mechanistic: negative parameter";
  Mechanistic
    {
      context_switch_mu;
      context_switch_sigma;
      payload_extra_mu;
      payload_extra_sigma;
      irq_delay_mean;
    }

(* Left-to-right accumulation, same association as the historical [ref]
   loop: ((0 + d1) + d2) + ...  Top-level and tail-recursive so the fused
   gateway kernel reaches an allocation-free draw path. *)
let rec irq_sum rng ~rate k acc =
  if k <= 0 then acc
  else irq_sum rng ~rate (k - 1) (acc +. Prng.Sampler.exponential rng ~rate)

let latency_at t rng ~sends_payload ~arrivals_in_window =
  match t with
  | None_ -> 0.0
  | Parametric { mu; sigma } ->
      Float.max 0.0 (Prng.Sampler.normal rng ~mu ~sigma)
  | Mechanistic m ->
      let base =
        Prng.Sampler.normal rng ~mu:m.context_switch_mu
          ~sigma:m.context_switch_sigma
      in
      let path =
        if sends_payload then
          Prng.Sampler.normal rng ~mu:m.payload_extra_mu
            ~sigma:m.payload_extra_sigma
        else 0.0
      in
      let blocking =
        if m.irq_delay_mean > 0.0 then
          irq_sum rng ~rate:(1.0 /. m.irq_delay_mean) arrivals_in_window 0.0
        else 0.0
      in
      Float.max 0.0 (base +. path +. blocking)
