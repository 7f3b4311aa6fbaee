(** §6 extension: classification among m > 2 payload rates.

    The paper notes the two-rate analysis "can be easily extended to
    multiple ones by performing more off-line training"; this scenario
    does exactly that — one KDE per rate, m-ary Bayes classification, and
    a confusion matrix.  Detection degrades gracefully with m because
    neighbouring rates' variance signatures overlap. *)

type t = {
  rates : float list;
  sample_size : int;
  results : (Adversary.Feature.kind * float) list;
      (** prior-weighted m-ary detection rate per feature *)
  confusion : int array array;
      (** [confusion.(truth).(decision)] for the variance feature *)
}

val run :
  ?scale:float ->
  ?seed:int ->
  ?sample_size:int ->
  ?csv_dir:string ->
  Format.formatter ->
  t
(** Rates 10/20/30/40 pps, default sample size 1000, CIT at the gateway,
    30 windows per class (scaled, floor 6).  Raises
    [Sweep.Sweep_internal_error] if the sweep journal layer misbehaves. *)
