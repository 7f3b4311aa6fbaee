(* Fused padding-gateway stage: the CIT/VIT gateway of [Gateway]
   executed as a batch loop over three merged trains — pre-generated
   Poisson payload arrivals, the timer-fire train, and the pending
   emission train — instead of per-event dispatch.

   The emit-time rule ([emit_time]) lives here and [Gateway.on_fire]
   calls it, so every gateway computes an emission instant with the
   same code ([Adaptive] is a period policy on [Gateway]).  The loop
   consumes the same RNG draws in the same order as [Gateway.on_fire]
   driven by [Sim.every].  Payload arrivals come from a dedicated
   split-off stream, so pre-filling a block of inter-arrival draws
   cannot perturb any other stream; timer and jitter draws are
   data-dependent (queue state decides whether the payload-extra normal
   is drawn) and are therefore made scalar, in fire order, as the event
   loop makes them.

   An exact time tie between a pending payload arrival and a pending
   timer fire is ordered by queue seq in the event loop, unreproducible
   here — {!Tie} makes the orchestrator fall back.  Emission events need
   no tie handling: an emission at the same instant as a fire was pushed
   before that fire's queue record (emit before fire), and relative
   order against an arrival is unobservable (disjoint state, no trace
   record on either side).

   No allocation per event: every float of the loop lives in a
   floatarray or a float array read and written in place, [on_fire] and
   [emit_time] are inlined, and the timer and jitter draws, which live
   in other modules, write into a register slot instead of returning a
   float.  A float passed to or returned from another module's function
   is boxed, since the modules are compiled [-opaque]; the draws pass
   only parameters stored in their law, never one computed per fire.
   Queue-occupancy observations are integer counts per queue length. *)

exception Tie

type t = {
  regs : floatarray; (* 0 next_arrival, 1 next_fire, 2 last_emit *)
  arr_buf : floatarray; (* pre-generated payload inter-arrival block *)
  (* Payload arrival times in arrival order: arrival p (counted from the
     run start) at slot p land mask, with a power-of-two capacity.  The
     gateway queue and the IRQ blocking window both drop arrivals from
     the front only, so one ring with two heads holds both: [queue, tail)
     is the queued payload, [window, tail) the arrivals still in the
     blocking window. *)
  mutable arrivals : floatarray;
  mutable queue : int;
  mutable window : int;
  mutable tail : int;
  (* Pending emissions awaiting their latency: (emit time, tag) pair p at
     slot 2 * (p land mask), the tag in the slot after. *)
  mutable pend : floatarray;
  mutable pend_head : int;
  mutable pend_tail : int;
  (* Fires that found q payload packets queued, at index q; grown on
     demand.  The histogram flush does not depend on their order. *)
  mutable occ : int array;
  out_t : Netsim.Fvec.t; (* this chunk's emissions *)
  out_tag : Netsim.Fvec.t;
  trace : Netsim.Tracebuf.t;
  mutable rng_payload : Prng.Rng.t;
  mutable rng_gateway : Prng.Rng.t;
  mutable timer : Timer.sampler;
  mutable jitter : Jitter.t;
  mutable packet_size : int;
  mutable payload_rate : float;
  mutable arr_idx : int;
  mutable fires : int;
  mutable payload_sent : int;
  mutable dummy_sent : int;
  mutable generated : int; (* payload arrival events = source emissions *)
  mutable max_pend : int;
  mutable events : int; (* events this chunk *)
}

let arrival_block = 4096

let create () =
  let dummy_rng = Prng.Rng.create ~seed:0 in
  {
    regs = Float.Array.make 3 0.0;
    arr_buf = Float.Array.create arrival_block;
    arrivals = Float.Array.create 64;
    queue = 0;
    window = 0;
    tail = 0;
    pend = Float.Array.create 128;
    pend_head = 0;
    pend_tail = 0;
    occ = Array.make 64 0;
    out_t = Netsim.Fvec.create ~capacity:1024 ();
    out_tag = Netsim.Fvec.create ~capacity:1024 ();
    trace = Netsim.Tracebuf.create ();
    rng_payload = dummy_rng;
    rng_gateway = dummy_rng;
    timer = Timer.sampler (Timer.Constant 0.010);
    jitter = Jitter.none;
    packet_size = 500;
    payload_rate = 1.0;
    arr_idx = 0;
    fires = 0;
    payload_sent = 0;
    dummy_sent = 0;
    generated = 0;
    max_pend = 0;
    events = 0;
  }

let[@inline] arrival_at t p =
  Float.Array.unsafe_get t.arrivals (p land (Float.Array.length t.arrivals - 1))

let[@inline] pend_slot t p =
  2 * (p land ((Float.Array.length t.pend lsr 1) - 1))

let refill t =
  Prng.Sampler.exponential_fill t.rng_payload ~rate:t.payload_rate t.arr_buf
    ~n:arrival_block;
  t.arr_idx <- 0

(* next = prev +. dt: the accumulation Sim.every performs when the
   arrival event re-schedules itself at clock +. interval (). *)
let arrival_next t =
  if t.arr_idx >= arrival_block then refill t;
  Float.Array.set t.regs 0
    (Float.Array.get t.regs 0 +. Float.Array.unsafe_get t.arr_buf t.arr_idx);
  t.arr_idx <- t.arr_idx + 1

let configure t ~rng_payload ~rng_gateway ~timer ~jitter ~packet_size
    ~payload_rate =
  t.queue <- 0;
  t.window <- 0;
  t.tail <- 0;
  t.pend_head <- 0;
  t.pend_tail <- 0;
  Array.fill t.occ 0 (Array.length t.occ) 0;
  Netsim.Fvec.clear t.out_t;
  Netsim.Fvec.clear t.out_tag;
  Netsim.Tracebuf.clear t.trace;
  t.rng_payload <- rng_payload;
  t.rng_gateway <- rng_gateway;
  t.timer <- Timer.sampler timer;
  t.jitter <- jitter;
  t.packet_size <- packet_size;
  t.payload_rate <- payload_rate;
  t.fires <- 0;
  t.payload_sent <- 0;
  t.dummy_sent <- 0;
  t.generated <- 0;
  t.max_pend <- 0;
  t.events <- 0;
  (* First payload arrival and first fire are both scheduled at creation
     time (simulated 0.0) as clock +. first draw. *)
  refill t;
  Float.Array.set t.regs 0 0.0;
  arrival_next t;
  Timer.draw_into t.timer rng_gateway t.regs 1;
  Float.Array.set t.regs 1 (0.0 +. Float.Array.get t.regs 1);
  Float.Array.set t.regs 2 0.0 (* last_emit <- Sim.now at create *)

(* [Netsim.Fvec.push], in place. *)
let[@inline] append (v : Netsim.Fvec.t) x =
  if v.len = Array.length v.data then Netsim.Fvec.grow v;
  Array.unsafe_set v.data v.len x;
  v.len <- v.len + 1

(* A full ring doubles by appending a copy of itself: every live
   position p keeps its contents at slot p land mask under the doubled
   mask too. *)
let[@inline] push_arrival t ta =
  if t.tail - Int.min t.queue t.window = Float.Array.length t.arrivals then
    t.arrivals <- Float.Array.append t.arrivals t.arrivals;
  Float.Array.unsafe_set t.arrivals
    (t.tail land (Float.Array.length t.arrivals - 1))
    ta;
  t.tail <- t.tail + 1

let[@inline] push_pending t ~emit_time ~tag =
  if t.pend_tail - t.pend_head = Float.Array.length t.pend lsr 1 then
    t.pend <- Float.Array.append t.pend t.pend;
  let s = pend_slot t t.pend_tail in
  Float.Array.unsafe_set t.pend s emit_time;
  Float.Array.unsafe_set t.pend (s + 1) tag;
  t.pend_tail <- t.pend_tail + 1;
  let pend = t.pend_tail - t.pend_head in
  if pend > t.max_pend then t.max_pend <- pend

(* The interrupt routine runs a jitter latency after the fire.
   Emissions never reorder because the timer period is orders of
   magnitude above the latency, but the clamp keeps emission times
   strictly increasing so a pathological parameterization cannot produce
   negative PIATs.  [clock.(i)] holds the last emission instant; the
   latency is drawn into it, then replaced by this fire's instant. *)
let[@inline] emit_time jitter rng ~now ~sends_payload ~arrivals_in_window
    clock i =
  let earliest = Float.Array.get clock i +. 1e-12 in
  Jitter.latency_into jitter rng ~sends_payload ~arrivals_in_window clock i;
  Float.Array.set clock i (Float.max (now +. Float.Array.get clock i) earliest)

(* One more fire that found [q] payload packets queued. *)
let[@inline] count_occupancy t q =
  if q >= Array.length t.occ then begin
    let occ = Array.make (2 * q) 0 in
    Array.blit t.occ 0 occ 0 (Array.length t.occ);
    t.occ <- occ
  end;
  Array.unsafe_set t.occ q (Array.unsafe_get t.occ q + 1)

(* [Gateway.on_fire] at fire time [now]. *)
let[@inline] on_fire t ~now =
  t.fires <- t.fires + 1;
  count_occupancy t (t.tail - t.queue);
  let window_start = now -. Jitter.irq_window in
  while t.window < t.tail && arrival_at t t.window < window_start do
    t.window <- t.window + 1
  done;
  let arrivals_in_window = t.tail - t.window in
  let sends_payload = t.queue < t.tail in
  emit_time t.jitter t.rng_gateway ~now ~sends_payload ~arrivals_in_window
    t.regs 2;
  let emit_time = Float.Array.get t.regs 2 in
  let tag =
    if sends_payload then begin
      t.payload_sent <- t.payload_sent + 1;
      let created = arrival_at t t.queue in
      t.queue <- t.queue + 1;
      created
    end
    else begin
      t.dummy_sent <- t.dummy_sent + 1;
      Float.nan
    end
  in
  if Obs.Trace.enabled () then begin
    Netsim.Tracebuf.push t.trace ~time:now ~code:Netsim.Tracebuf.timer_fire
      ~x:(float_of_int (t.tail - t.queue));
    Netsim.Tracebuf.push t.trace ~time:emit_time
      ~code:
        (if sends_payload then Netsim.Tracebuf.sent_payload
         else Netsim.Tracebuf.sent_dummy)
      ~x:(float_of_int t.packet_size)
  end;
  push_pending t ~emit_time ~tag;
  (* Sim.every: the fire body runs before the next interval is drawn. *)
  Timer.draw_into t.timer t.rng_gateway t.regs 1;
  Float.Array.set t.regs 1 (now +. Float.Array.get t.regs 1)

let advance t ~until =
  t.events <- 0;
  Netsim.Fvec.clear t.out_t;
  Netsim.Fvec.clear t.out_tag;
  let continue = ref true in
  while !continue do
    let ta = Float.Array.get t.regs 0 in
    let tf = Float.Array.get t.regs 1 in
    let te =
      if t.pend_head < t.pend_tail then
        Float.Array.unsafe_get t.pend (pend_slot t t.pend_head)
      else infinity
    in
    let m = Float.min (Float.min ta tf) te in
    if m > until then continue := false
    else if ta = m && ta = tf then raise Tie
    else if te = m then begin
      (* emission event: the packet leaves for the first hop *)
      let tag = Float.Array.unsafe_get t.pend (pend_slot t t.pend_head + 1) in
      t.pend_head <- t.pend_head + 1;
      t.events <- t.events + 1;
      append t.out_t te;
      append t.out_tag tag
    end
    else if ta < tf then begin
      (* payload arrival event: source emit + Gateway.input *)
      t.events <- t.events + 1;
      t.generated <- t.generated + 1;
      push_arrival t ta;
      arrival_next t
    end
    else begin
      t.events <- t.events + 1;
      on_fire t ~now:tf
    end
  done

let out_times t = t.out_t
let out_tags t = t.out_tag
let trace t = t.trace
let occupancy t = t.occ
let chunk_events t = t.events
let fires t = t.fires
let payload_sent t = t.payload_sent
let dummy_sent t = t.dummy_sent
let generated t = t.generated
let max_pending t = t.max_pend

let overhead t =
  Qos.dummy_fraction ~payload_sent:t.payload_sent ~dummy_sent:t.dummy_sent
