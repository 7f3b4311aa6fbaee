type t = { sim : Desim.Sim.t; dest : Link.port; times : Fvec.t; sizes : Fvec.t }

(* [buffers] lets a sweep harness hand the tap already-grown Fvecs from a
   previous run (cleared here), so repeated runs stop re-growing the
   recording arrays from scratch. *)
let create sim ?buffers ~dest () =
  let times, sizes =
    match buffers with
    | Some (times, sizes) ->
        Fvec.clear times;
        Fvec.clear sizes;
        (times, sizes)
    | None -> (Fvec.create ~capacity:1024 (), Fvec.create ~capacity:1024 ())
  in
  { sim; dest; times; sizes }

let m_observed = Obs.Metrics.counter "netsim.tap.observed"
let m_payload = Obs.Metrics.counter "netsim.tap.payload"
let m_dummy = Obs.Metrics.counter "netsim.tap.dummy"

let observe t pkt ~counter ~code =
  let now = Desim.Sim.now t.sim in
  let size = float_of_int pkt.Packet.size_bytes in
  Obs.Metrics.incr m_observed;
  Obs.Metrics.incr counter;
  if Obs.Trace.enabled () then Tracebuf.record ~time:now ~code ~x:size;
  Fvec.push t.times now;
  Fvec.push t.sizes size

let port t pkt =
  (match pkt.Packet.kind with
  | Packet.Payload ->
      observe t pkt ~counter:m_payload ~code:Tracebuf.observe_payload
  | Packet.Dummy -> observe t pkt ~counter:m_dummy ~code:Tracebuf.observe_dummy
  | Packet.Cross -> ());
  t.dest pkt

(* Batched counter flush for the fused kernels: they record observation
   timestamps straight into arena Fvecs and fold the per-packet counter
   increments into one transactional add per run. *)
let note_batch ~observed ~payload ~dummy =
  if observed < 0 || payload < 0 || dummy < 0 then
    invalid_arg "Tap.note_batch: negative count";
  Obs.Metrics.add m_observed observed;
  Obs.Metrics.add m_payload payload;
  Obs.Metrics.add m_dummy dummy

let count t = Fvec.length t.times
(* talint: allow U001 — tests read it to observe the live tap *)
let timestamps t = Fvec.to_array t.times
let sizes t = Array.map int_of_float (Fvec.to_array t.sizes)
