(** Gateway disturbance models (the paper's δ_gw).

    The paper traces δ_gw to two OS-level effects on the TimeSys Linux
    gateway (§4.1.2): (1) random context-switch latency before the timer
    interrupt routine runs, and (2) the timer interrupt being blocked by
    NIC interrupts raised by incoming payload packets.  Both make the
    *actual* send instant lag the scheduled fire time by a small random
    amount whose variance grows with the payload rate — the information
    leak the whole paper is about.

    Two models are provided:

    - {!mechanistic}: reproduces the causal chain.  Every send pays a base
      context-switch latency; sends that transmit a *payload* packet pay an
      extra dequeue-path cost; payload arrivals landing within the
      interrupt window before the fire each add an exponential blocking
      delay.  Nothing here is told the payload rate — the rate dependence
      emerges from the packet process itself.

    - {!parametric}: directly N(mu, sigma²)-distributed latency with a
      caller-chosen sigma, clipped at 0.  Used to validate the closed-form
      theory under its exact assumptions, and for ablations.

    The model is consulted once per timer fire. *)

type t

val latency_into :
  t ->
  Prng.Rng.t ->
  sends_payload:bool ->
  arrivals_in_window:int ->
  floatarray ->
  int ->
  unit
(** [latency_into t rng ~sends_payload ~arrivals_in_window dst i] writes
    the random send latency (>= 0) of one timer fire into [dst.(i)]:
    [sends_payload] when it transmits payload, [arrivals_in_window]
    payload arrivals within {!irq_window} before it.  Allocates nothing;
    the one jitter draw, made through [Kernel.emit_time]. *)

val none : t
(** Zero latency — an ideal gateway (perfect secrecy baseline). *)

val parametric : mu:float -> sigma:float -> t
(** Normal latency clipped at 0; [mu >= 0], [sigma >= 0], both finite.
    Raises [Invalid_argument] otherwise, a NaN parameter included
    (["Jitter.parametric: mu < 0"], ["... sigma < 0"],
    ["... mu not finite"], ["... sigma not finite"]). *)

val mechanistic :
  ?context_switch_mu:float ->
  ?context_switch_sigma:float ->
  ?payload_extra_mu:float ->
  ?payload_extra_sigma:float ->
  ?irq_delay_mean:float ->
  unit ->
  t
(** Defaults are the repository's calibration (seconds): context switch
    3e-6 ± 1.0e-6, payload path extra 4e-6 ± 1.2e-6, IRQ blocking mean
    2e-6 per arrival in window.  See {!Calibration} notes in
    [lib/scenarios] for how these map to the paper's Fig. 4(a) spread.
    Every parameter must be finite and [>= 0]; [irq_delay_mean = 0]
    turns the blocking term off.  Raises [Invalid_argument]
    (["Jitter.mechanistic: negative parameter"] for a negative or NaN
    one, ["Jitter.mechanistic: <name> not finite"] for an infinite
    one).  The blocking rate [1 / irq_delay_mean] is computed here,
    once. *)

val irq_window : float
(** Width of the pre-fire window in which a payload arrival's NIC interrupt
    blocks the timer interrupt (50 µs). *)
