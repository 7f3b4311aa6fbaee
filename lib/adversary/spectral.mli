(** Spectral traffic-analysis features — frequency-domain ablation.

    The padded stream's PIAT series is (nearly) white under ideal padding;
    payload-correlated jitter tints it.  Two scalar features are exposed:
    the spectral entropy of the PIAT periodogram (flatness) and the total
    non-DC spectral power (which equals the series variance by Parseval,
    but measured through the FFT path — a consistency check as much as a
    feature).  Both plug into {!Detection.estimate_on_features}. *)

type kind =
  | Spectral_entropy
  | Spectral_power

val extract : kind -> float array -> float
(** Feature of one PIAT window; requires length >= 4. *)

val features_of_trace :
  kind -> sample_size:int -> float array -> float array
(** One feature value per non-overlapping window of the trace. *)

val estimate :
  ?priors:float array ->
  kind:kind ->
  sample_size:int ->
  classes:(string * float array) array ->
  unit ->
  Detection.result
(** End-to-end spectral detection rate (KDE-Bayes over the spectral
    feature, interleaved train/test split). *)
