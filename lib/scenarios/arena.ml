type t = {
  sim : Desim.Sim.t;
  tap_times : Netsim.Fvec.t;
  tap_sizes : Netsim.Fvec.t;
  gw : Padding.Gateway.Buffers.t;
  kernel_gw : Padding.Kernel.t;
  mutable kernel_hops : Netsim.Linkstage.t array;
  kernel_tap_trace : Netsim.Tracebuf.t;
}

let create () =
  {
    sim = Desim.Sim.create ();
    tap_times = Netsim.Fvec.create ~capacity:1024 ();
    tap_sizes = Netsim.Fvec.create ~capacity:1024 ();
    gw = Padding.Gateway.Buffers.create ();
    kernel_gw = Padding.Kernel.create ();
    kernel_hops = [||];
    kernel_tap_trace = Netsim.Tracebuf.create ();
  }

(* One arena per domain: Exec.Pool workers never share a simulator, and a
   single-domain sweep reuses the same arena run after run.  The key's
   initializer runs lazily on first use in each domain. *)
let key = Domain.DLS.new_key create

let tap_buffers t = (t.tap_times, t.tap_sizes)

(* Grow (never shrink) the per-hop kernel scratch array, keeping the
   already-grown stages so their ring/buffer capacity survives across
   runs of different chain lengths. *)
let kernel_hops t n =
  let len = Array.length t.kernel_hops in
  if len < n then
    t.kernel_hops <-
      Array.init n (fun i ->
          if i < len then t.kernel_hops.(i) else Netsim.Linkstage.create ());
  t.kernel_hops

let get () =
  let t = Domain.DLS.get key in
  (* Reset up front — not at run end — so state left by an aborted or
     starved run can never leak into the next one.  [Sim.reset] restores
     the event queue's push counter, making a reused arena's (time, seq)
     schedule bit-identical to a fresh simulator's. *)
  Desim.Sim.reset t.sim;
  t
