(** End-to-end detection-rate estimation: the paper's off-line training +
    run-time classification loop (§3.3), producing the empirical detection
    rate v̂ (eq. 7) for one feature at one sample size. *)

type result = {
  feature : Feature.kind;
  sample_size : int;
  detection_rate : float;
  n_train_per_class : int array;
  n_test_per_class : int array;
  n_correct_per_class : int array;
      (** exact held-out success counts per class — the integers behind
          [detection_rate], carried so confidence intervals never have to
          reconstruct them by rounding [rate × n] (lossy when per-class
          test counts differ) *)
  threshold : float option;  (** binary decision threshold d, when found *)
}

val estimate :
  ?priors:float array ->
  feature:Feature.kind ->
  reference:float ->
  sample_size:int ->
  classes:(string * float array) array ->
  unit ->
  result
(** [estimate ~feature ~reference ~sample_size ~classes ()] where
    [classes.(i) = (name, PIAT trace)].  Each trace is sliced into
    [sample_size]-windows, features extracted, then split into interleaved
    train/test halves; a KDE-Bayes classifier is trained and its
    prior-weighted accuracy on the held-out halves is the detection rate.
    Raises if any class yields fewer than 4 feature values (2 train,
    2 test). *)

val estimate_on_features :
  ?priors:float array ->
  ?backend:[ `Kde | `Gaussian ] ->
  feature:Feature.kind ->
  sample_size:int ->
  named_features:(string * float array) array ->
  unit ->
  result
(** Lower-level entry point taking already-extracted feature values per
    class (used by {!Counting}, {!Spectral}, and ablations that
    pre-process features); performs the interleaved split, training, and
    scoring.  [backend] selects the density model the adversary trains:
    the paper's Gaussian-kernel estimator ([`Kde], default) or a plain
    per-class Gaussian fit ([`Gaussian], no threshold reported). *)

val estimate_features :
  ?priors:float array ->
  features:Feature.kind list ->
  reference:float ->
  sample_size:int ->
  classes:(string * float array) array ->
  unit ->
  result list
(** {!estimate} for several features over the same traces.  Windows are
    read through index-based views of each trace ({!Feature.extract_in}),
    so scoring allocates one feature array per class and nothing per
    window. *)

val entropy_bin_widths : Feature.kind list -> float list
(** Distinct entropy bin widths requested by a feature list, sorted —
    what a sliding pass must collect to serve all of them. *)

val estimate_windowed :
  ?priors:float array ->
  ?backend:[ `Kde | `Gaussian ] ->
  features:Feature.kind list ->
  sample_size:int ->
  named_windows:(string * Dataset.windowed) array ->
  unit ->
  result list
(** Score already-extracted window-feature series (the streaming
    collectors' accumulation format, see {!Dataset.sliding_features} and
    {!Dataset.append_windowed}): per feature, the series is split
    alternating into train/test halves and scored exactly as
    {!estimate_on_features}. *)
