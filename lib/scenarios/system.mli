(** Assembly and execution of one complete padded system: payload source →
    sender gateway → unprotected hop chain (with adversary tap) → receiver
    gateway.  One [run] simulates one payload-rate class and returns the
    adversary's PIAT trace plus the defender-side accounting.  All
    [run*] entry points share one event-loop driver; only the sender in
    front of the chain differs. *)

type payload_model =
  | Poisson_payload  (** memoryless payload arrivals (default) *)
  | Cbr_payload      (** perfectly periodic payload *)

type config = {
  seed : int;
  timer : Padding.Timer.law;
  jitter : Padding.Jitter.t;
  payload_rate_pps : float;
  payload_model : payload_model;
  packet_size : int;
  hops : Netsim.Topology.hop_spec array;
  tap_position : int;
  warmup_piats : int;  (** discarded from the front of the trace *)
}

val default_config : config
(** CIT 10 ms, mechanistic jitter, 10 pps Poisson payload, no hops, tap at
    the gateway output, 200-PIAT warm-up, seed 42. *)

type result = {
  piats : float array;          (** the adversary's sample material *)
  timestamps : float array;     (** absolute tap arrival times (post warmup) *)
  overhead : float;             (** dummy fraction of emitted packets *)
  payload_offered : int;        (** payload packets the source produced *)
  payload_delivered : int;      (** payload packets through the receiver *)
  payload_dropped_gw : int;     (** payload lost to gateway queue overflow *)
  mean_payload_latency : float;
  sim_time : float;             (** simulated seconds consumed *)
}

val after_warmup :
  warmup_piats:int -> ?limit:int -> Netsim.Fvec.t -> float array * float array
(** The one warm-up trim: drop the first [warmup_piats + 1] timestamps of
    a tap's recording vector; return the rest (every one, overshoot
    included) and their {!Netsim.Trace.piats}, at most [limit] of them.
    Allocates exactly these two arrays. *)

val validate_sender :
  timer:Padding.Timer.law ->
  payload_rate_pps:float ->
  packet_size:int ->
  warmup_piats:int ->
  unit
(** The sender-side config check every [run*] entry point makes first,
    and the one {!Degradation} makes too: a valid timer law, a positive
    finite payload rate (NaN fails), a positive packet size and a
    non-negative warm-up, else [Invalid_argument]. *)

val run : config -> piats:int -> result
(** Simulate until the tap has recorded [piats] inter-arrival times beyond
    the warm-up, then stop.  Raises [Desim.Sim.Event_budget_exceeded] if
    a supervising sweep armed an event budget and the run overran it, and
    [Starvation.Tap_starved] if the tap stops making progress before the
    budget is met.  Deterministic in [config.seed].
    [piats >= 1].  The run recycles the calling domain's {!Arena}
    (simulator, tap vectors, gateway buffers) — observably identical to a
    fresh simulator but without re-growing storage on every run of a
    sweep.

    Eligible configurations (Poisson payload, cross traffic absent or
    Poisson — the no-fault common case) execute on the fused
    {!Fastpath} kernels instead of per-event dispatch.  The two paths
    are bit-identical — same RNG draws, tap timestamps, trace stream and
    metric totals — so which one ran is visible only through the
    [desim.kernel.runs] / [desim.kernel.fallbacks{reason}] counters.
    {!Fastpath.set_enabled}[ false] forces the event loop.  Both paths
    reject a bad config (NaN and infinite values included) with the
    same [Invalid_argument] before the first event.

    Memory: on a recycled arena a run allocates two PIAT-length arrays,
    [timestamps] and [piats] ({!after_warmup}), on either path.  The
    kernel path allocates nothing per PIAT besides: its timer and jitter
    draws write into register slots, and its tap and receiver read the
    stage vectors in place. *)

val run_unpadded : config -> packets:int -> result
(** Baseline without any gateway: the payload stream crosses the same hop
    chain in the clear ([timer]/[jitter] ignored, [piats] are payload
    inter-arrivals).  Used by the packet-counting attack example.
    Raises [Starvation.Tap_starved] / [Desim.Sim.Event_budget_exceeded]
    as {!run} does. *)

val run_mix :
  ?threshold:int ->
  ?timeout:float ->
  config ->
  piats:int ->
  result
(** Same assembly but with a Chaum-style threshold {!Padding.Mix} instead
    of a timer gateway ([config.timer]/[jitter] ignored).  The batch-flush
    epochs leak the payload rate; used by the mix-vs-padding baseline.
    Raises [Starvation.Tap_starved] / [Desim.Sim.Event_budget_exceeded]
    as {!run} does. *)

val run_adaptive : config -> piats:int -> result
(** Same assembly but with the sender gateway's period set by the
    Timmerman-style {!Padding.Adaptive} policy (10–40 ms) instead of
    [config.timer], which is ignored; [jitter] applies as in {!run}.
    Always the event loop.  Raises [Starvation.Tap_starved] /
    [Desim.Sim.Event_budget_exceeded] as {!run} does. *)
