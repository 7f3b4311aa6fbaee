(** Assembly of multi-hop paths: sender gateway → router chain → receiver.

    Each hop is a {!Router} with an optional cross-traffic source feeding
    the same output link; the adversary's tap can be spliced in front of
    any hop (position 0 = right at the sender gateway output, the paper's
    "best case for the adversary") or after the last hop (in front of the
    receiver gateway, the campus/WAN placement).  [Scenarios.Fastpath]
    calls {!validate}, {!cross_streams} and {!note_utilization} when it
    runs a chain as fused {!Linkstage}s. *)

type cross_spec = {
  rate_pps : float;        (** average cross packet rate into this hop *)
  size_bytes : int;
  burst : [ `Poisson | `On_off of float * float * float option ]
      (** [`On_off (mean_on, mean_off, pareto_shape)] *)
}

type hop_spec = {
  bandwidth_bps : float;
  propagation : float;
  queue_limit : int option;
  cross : cross_spec option;
}

type t = {
  entry : Link.port;        (** where the sender gateway pushes packets *)
  tap : Tap.t;              (** the adversary's observation point *)
  routers : Router.t array;
  cross_sources : Traffic_gen.t list;
  sink_count : unit -> int; (** padded packets that reached the far end *)
}

val validate : hops:hop_spec array -> tap_position:int -> unit
(** [0 <= tap_position <= Array.length hops], {!Link.validate} on every
    hop, and per cross spec a finite [rate_pps > 0], [size_bytes > 0],
    finite positive on/off period means and a finite Pareto shape [> 1]
    (NaN fails each); else [Invalid_argument]. *)

val cross_streams : rng:Prng.Rng.t -> hop_spec array -> Prng.Rng.t option array
(** One child of [rng] per hop with cross traffic, split back to front. *)

val chain :
  Desim.Sim.t ->
  rng:Prng.Rng.t ->
  hops:hop_spec array ->
  tap_position:int ->
  ?tap_buffers:Fvec.t * Fvec.t ->
  ?dest:Link.port ->
  unit ->
  t
(** [chain sim ~rng ~hops ~tap_position ()] builds the path.  The tap sits
    in front of hop [tap_position] (so 0 observes the traffic exactly as it
    leaves the sender gateway); [tap_position = Array.length hops] places it
    after the final hop.  Raises [Invalid_argument] when {!validate}
    rejects the spec.  Cross sources draw from {!cross_streams}.
    Packets surviving the last hop go to [dest] (default: a counting-only
    sink); [sink_count] counts padded packets reaching the far end either
    way.  [tap_buffers] is handed to {!Tap.create} for recording-storage
    reuse across runs. *)

val publish : t -> unit
(** {!Link.publish} every hop, in chain order. *)

val stop_cross : t -> unit
(** Stop all cross-traffic sources (used between experiment phases),
    observe every hop's utilization in [netsim.link.utilization] and
    {!publish}. *)

val note_utilization : Linkstage.t -> now:float -> unit
(** Observe a fused stage's utilization at [now] in the same histogram. *)
