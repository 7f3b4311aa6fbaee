(** Per-domain reusable simulation state.

    Sweep harnesses ({!System}, the degradation and ablation drivers) run
    thousands of short simulations; allocating a simulator, tap recording
    vectors and gateway buffers for each one dominated their allocation
    profile.  An arena owns one of each per domain (via [Domain.DLS], so
    {!Exec.Pool} workers never share) and {!get} re-issues them reset, with
    already-grown storage intact.

    Reuse is observably identical to fresh allocation: {!Desim.Sim.reset}
    restores the event queue's push counter (the (time, seq) tie-break
    order), buffers are cleared by their consumers, and all randomness
    comes from caller-created RNGs — so a reused-arena run produces
    bit-identical tables to a fresh-simulator run at any [--jobs]. *)

type t = {
  sim : Desim.Sim.t;
  tap_times : Netsim.Fvec.t;
  tap_sizes : Netsim.Fvec.t;
  gw : Padding.Gateway.Buffers.t;
  kernel_gw : Padding.Kernel.t;
      (** fused-gateway scratch for the {!Fastpath} kernel *)
  mutable kernel_hops : Netsim.Linkstage.t array;
      (** per-hop fused-link scratch; grown on demand via {!kernel_hops} *)
  kernel_tap_trace : Netsim.Tracebuf.t;
      (** deferred [tap.observe] records for the kernel's inline tap *)
}

val get : fresh:bool -> t
(** [get ~fresh:false] returns the calling domain's arena, reset and ready
    to drive a run.  [get ~fresh:true] builds a brand-new arena instead
    (used by determinism tests to compare the two paths, and by callers
    that need two concurrent simulations on one domain). *)

val tap_buffers : t -> Netsim.Fvec.t * Netsim.Fvec.t
(** The [(times, sizes)] pair for {!Netsim.Topology.chain}'s
    [tap_buffers]. *)

val kernel_hops : t -> int -> Netsim.Linkstage.t array
(** [kernel_hops t n] returns the per-hop kernel scratch array grown to
    at least [n] stages, reusing already-grown stages so buffer capacity
    survives across runs of different chain lengths. *)
