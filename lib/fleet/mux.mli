(** Flow-indexed multiplexing over the padded link.

    A gateway fleet carries [flows] concurrent user flows, split into
    [gateways] contiguous balanced shards.  Each shard runs one
    independent simulation: a single superposed arrival process at the
    shard's aggregate rate (the superposition theorem makes this
    statistically identical to per-flow Poisson sources at O(1) event
    cost per arrival), demultiplexed per arrival onto a {!Flow_table}
    row and fed through one shared padded {!Padding.Gateway} to a
    receiver.  Heterogeneity comes from a configurable mixture of rate
    classes over contiguous flow-id ranges, optionally modulated by a
    diurnal load curve via Lewis–Shedler thinning.

    Determinism: shard [g] seeds its generators with
    [Rng.mix_seed seed g], shard decomposition and class ranges are pure
    functions of the config, and per-shard results merge by shard index
    ({!Flow_table.merge} is order-independent anyway) — {!run} is
    bit-identical at any [--jobs]. *)

type rate_class = {
  label : string;  (** metrics/table label, e.g. "10pps" *)
  rate_pps : float;  (** per-flow Poisson payload rate; > 0 *)
  fraction : float;  (** share of the fleet in this class; >= 0 *)
}

type config = {
  seed : int;
  flows : int;  (** total flows across the fleet; >= 1 *)
  gateways : int;  (** shard count; in [1, flows] *)
  classes : rate_class array;  (** fractions must sum to 1 *)
  timer : Padding.Timer.law;
  jitter : Padding.Jitter.t;
  packet_size : int;
  duration : float;  (** simulated seconds per shard; > 0 *)
  modulation : (float -> float) option;
      (** sim-time -> load multiplier in [0, 1] (e.g. a
          [Scenarios.Diurnal] activity curve on a compressed clock);
          [None] = flat load *)
}

val default_classes : rate_class array
(** Half the fleet at the calibration low rate (10 pps), half at the
    high rate (40 pps). *)

val default_config : config
(** 10^4 flows over 8 gateways, calibration mix, CIT timer at the
    calibration period, 2 simulated seconds, flat load. *)

val validate : config -> unit
(** Raises [Invalid_argument] on any out-of-range field. *)

val class_bounds : config -> int array
(** Cumulative class boundaries over global flow ids: class [c] covers
    [\[bounds.(c), bounds.(c + 1))].  Length = classes + 1; a pure
    function of the config, so a flow's class never depends on
    sharding. *)

val class_of_flow : config -> int -> int
(** Class index of a global flow id. *)

val shard_range : config -> gateway:int -> int * int
(** [(lo, hi)] of the shard's flow-id slice: [flows*g/G, flows*(g+1)/G) —
    balanced, contiguous, never empty. *)

type env = {
  sim : Desim.Sim.t;  (** must be idle (fresh or reset) *)
  gw_buffers : Padding.Gateway.Buffers.t option;
}
(** Recycled simulation state for one shard run — how sweep harnesses
    plug in their per-domain [Scenarios.Arena] pools without this
    library depending on the scenarios layer. *)

type shard_result = {
  table : Flow_table.t;  (** covers exactly the shard's flow window *)
  arrivals : int;  (** accepted payload arrivals = table packet total *)
  payload_sent : int;
  dummy_sent : int;
  payload_dropped : int;
  payload_delivered : int;
  mean_payload_latency : float;
  events_processed : int;
  sim_time : float;
}

val run_shard : ?env:env -> config -> gateway:int -> shard_result
(** Simulate one shard for [duration] simulated seconds.  Every accepted
    arrival lands in exactly one flow of the shard's window (so
    [Flow_table.total_packets table = float arrivals] exactly); the
    shared gateway's dummies are amortized across the shard's flows with
    {!Flow_table.spread_dummies}.  Honours the sweep supervisor's
    per-point event budget when one is armed (raising
    [Desim.Sim.Event_budget_exceeded] on overrun).  Records
    [fleet.mux.arrivals], [fleet.mux.dummies], per-class
    [fleet.mux.class_arrivals{class=...}] counters and the
    [fleet.mux.flows] high-water gauge. *)

type result = {
  table : Flow_table.t;  (** merged: covers [0, flows) *)
  arrivals : int;
  payload_sent : int;
  dummy_sent : int;
  payload_dropped : int;
  payload_delivered : int;
  mean_payload_latency : float;  (** delivered-weighted across shards *)
  overhead : float;  (** dummy fraction of emitted packets *)
  events_processed : int;
  duration : float;
}

val run : ?env_for:(int -> env) -> config -> result
(** Run every shard (fanned out on [Exec.Pool]) and merge.  [env_for g]
    is evaluated inside the worker task — on the domain that runs shard
    [g] — so arena-style per-domain pools resolve correctly.  Raises
    [Desim.Sim.Event_budget_exceeded] when a supervisor-armed event
    budget trips in a shard (the pool re-raises it as raised). *)
