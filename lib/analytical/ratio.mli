(** The variance ratio r (paper eq. 16) — the single quantity every
    closed-form detection rate depends on:

    r = (σ_T² + σ_net² + σ²_gw,h) / (σ_T² + σ_net² + σ²_gw,l) ≥ 1.

    All inputs are standard deviations in seconds. *)

type components = {
  sigma_t : float;       (** timer interval σ_T; 0 for CIT *)
  sigma_net : float;     (** network disturbance σ_net; 0 at the gateway *)
  sigma_gw_low : float;  (** gateway jitter σ_gw under the low rate *)
  sigma_gw_high : float; (** gateway jitter σ_gw under the high rate *)
}

val make :
  ?sigma_t:float ->
  ?sigma_net:float ->
  sigma_gw_low:float ->
  sigma_gw_high:float ->
  unit ->
  components
(** [sigma_t] and [sigma_net] default to 0 (CIT, tap at the gateway).
    All values must be >= 0 and [sigma_gw_high >= sigma_gw_low > 0]. *)

val r : components -> float
(** The ratio; always >= 1 by the constructor's constraints. *)
