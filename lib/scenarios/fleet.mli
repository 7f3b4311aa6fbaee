(** Fleet-scale sweep: per-flow detection-rate distributions.

    Each point simulates [flows] users mux'd behind a padded gateway
    fleet (the fleet library's [Mux]) and reports the adversary's
    detection rate as a distribution across probe flows — quantiles and
    a pooled Wilson interval — rather than the single v of the
    single-flow figures.  Routed through {!Sweep.mapi}, so it inherits
    checkpoint/resume, supervision and byte-identical tables at any
    [--jobs]. *)

type load = Flat | Diurnal
(** Aggregate-load shape: flat, or the {!Diurnal.activity} curve with
    one 24 h day compressed into the mux duration. *)

val load_label : load -> string

val modulation_of_load : duration:float -> load -> (float -> float) option

val calibration_mix : Mux.rate_class array
(** Half the fleet at {!Calibration.rate_low_pps}, half at
    {!Calibration.rate_high_pps}. *)

type point = {
  flows : int;
  gateways : int;
  probes : int;  (** probes actually run (min probes flows) *)
  arrivals : int;
  active_flows : int;  (** flows that saw at least one payload packet *)
  overhead : float;
  delivered_frac : float;
  mean_latency : float;
  events_processed : int;
  vs : float array;  (** per-probe detection rates, probe order *)
  v_mean : float;
  v_p10 : float;
  v_p25 : float;
  v_p50 : float;
  v_p75 : float;
  v_p90 : float;
  successes : int;  (** pooled held-out correct count across probes *)
  trials : int;
  wilson : Stats.Confidence.interval;  (** 95% on successes/trials *)
}

val probe_flows : flows:int -> probes:int -> int array
(** Deterministic evenly-spaced probe sample of the flow-id space
    (range midpoints) — covers contiguous class ranges proportionally. *)

val evaluate :
  ?sample_size:int ->
  ?max_windows:int ->
  ?load:load ->
  ?mix:Mux.rate_class array ->
  seed:int ->
  flows:int ->
  gateways:int ->
  probes:int ->
  duration:float ->
  unit ->
  point
(** One fleet point: run the mux (gateway shards fan out on the pool,
    arena-backed), then the per-probe windowed two-class estimates at
    the calibration parameters with flow-derived seeds
    ([mix_seed (mix_seed seed 999983) flow]).  Raises [Invalid_argument]
    on out-of-range parameters (via [Mux.validate]);
    [Desim.Sim.Event_budget_exceeded] from the mux or a probe's class
    run, and [Starvation.Tap_starved] from a probe's, as {!Mux.run} and
    [System.run] do; [Sweep.Sweep_internal_error] if a probe's scoring
    returns no feature. *)

val default_flow_counts : int list

val run :
  ?scale:float ->
  ?seed:int ->
  ?csv_dir:string ->
  ?flow_counts:int list ->
  ?gateways:int ->
  ?probes:int ->
  ?duration:float ->
  ?load:load ->
  Format.formatter ->
  point list
(** The fleet sweep table ([fleet.csv] under [csv_dir]).  Flow counts
    are scaled by [scale]; the sweep digest folds every input that
    determines point values.  Raises [Invalid_argument] on non-positive
    flow counts, gateways or probes, and [Sweep.Sweep_internal_error] if
    the sweep journal layer misbehaves. *)
