(** Fused-kernel fast path for {!System.run}.

    Batch-executes the dominant no-fault configuration — Poisson payload,
    chain topology, cross traffic absent or Poisson — through
    {!Padding.Kernel} and {!Netsim.Linkstage} instead of the discrete
    event loop, bit-identical to it at any [--jobs].  It owns only the
    orchestration (chunks, inline tap and receiver, trace replay,
    transactional flush) and the [desim.kernel.*] counters; every rule
    it runs, and every other metric it publishes, belongs to a module
    the event loop calls too ({!Netsim.Topology}, {!Arena},
    {!Starvation.drive}, and the owners' [note_batch] functions).  Runs
    the kernel cannot order exactly (cross-stream time ties) publish
    nothing and fall back to the event loop.

    {!set_enabled}[ false] (the [--no-kernel] flag of both binaries)
    forces every run onto the event loop. *)

val enabled : unit -> bool
(** Whether eligible runs may take the kernel path. *)

val set_enabled : bool -> unit
(** Process-wide toggle. *)

(** Why a run took the event loop: disabled, CBR payload, on/off cross
    traffic, or a time tie the kernel could not order. *)
type fallback = Disabled | Cbr_payload | Onoff_cross | Tie

val note_fallback : fallback -> unit
(** Bump [desim.kernel.fallbacks{reason=...}]: ["disabled"],
    ["cbr_payload"], ["onoff_cross"] or ["tie"]. *)

val eligible_hops : Netsim.Topology.hop_spec array -> bool
(** Every hop's cross traffic is absent or [`Poisson] (the kernel has no
    on/off burst model). *)

(** A run's outcome before the warm-up trim, on either engine. *)
type outcome = {
  tap_times : Netsim.Fvec.t;
      (** tap observation times, in order: the calling domain's
          {!Arena} vector, valid until its next run *)
  overhead : float;  (** dummy fraction of the sender's packets *)
  payload_offered : int;  (** payload packets generated at the source *)
  payload_delivered : int;  (** payload packets absorbed by the receiver *)
  mean_payload_latency : float;  (** creation-to-delivery mean, 0 if none *)
  sim_time : float;  (** simulated clock at run end *)
}

val try_run :
  scenario:string ->
  rng_payload:Prng.Rng.t ->
  rng_gateway:Prng.Rng.t ->
  rng_cross:Prng.Rng.t ->
  timer:Padding.Timer.law ->
  jitter:Padding.Jitter.t ->
  payload_rate_pps:float ->
  packet_size:int ->
  hops:Netsim.Topology.hop_spec array ->
  tap_position:int ->
  target:int ->
  expected_rate:float ->
  outcome option
(** Run the fused pipeline until the tap has recorded [target]
    observations, chunked by the same {!Starvation.drive} arithmetic the
    event loop uses (slack 1.1, min chunk 0.1), on the streams the event
    loop would give the payload source, the gateway and
    {!Netsim.Topology.chain}.  Returns [None] if a cross-stream time tie
    makes exact event ordering unreproducible — nothing has been
    published in that case and the caller must rerun the configuration
    on the event loop with fresh streams (and count the {!Tie}
    fallback).  Raises the same exceptions as the event-loop path:
    {!Netsim.Topology.validate}'s [Invalid_argument] before anything
    runs, {!Exec.Supervise} event-budget trips (after flushing
    incrementally-published state) and [Starvation.Tap_starved]. *)
