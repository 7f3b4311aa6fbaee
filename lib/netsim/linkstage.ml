(* Fused per-hop stage: one chain hop's {Link + Router + cross source}
   executed as a batch loop instead of discrete events, and the home of
   the link's serve and utilization rules.

   Per chunk the stage merges two time-ordered arrival trains — padded
   sends handed down by the upstream stage and this hop's own Poisson
   cross arrivals (pre-generated in blocks from the hop's split-off
   RNG).  The pending transmit-finish / propagation-delivery trains are
   settled lazily: [settle] pops them in time order up to each arrival,
   and up to [until] at the chunk end, so an accepted packet meets the
   merge once, not on arrival and again on its finish.  Every accepted
   packet goes through [serve], the function [Link.send] calls too, and
   [Link.utilization] is [busy_fraction].  Packets are (time,
   tag) float pairs: a payload's tag is its creation time (finite,
   >= 0), a dummy's is NaN, cross traffic's is -inf; nothing else about
   a packet is observable downstream of the gateway.

   Exactness over speed: any exact time tie between two streams could
   be ordered either way by the event loop's (time, seq) tie-break, so
   the stage raises {!Tie} and the orchestrator falls back to the event
   loop for the whole run.  The two-train merge catches arrival against
   arrival; [settle] catches finish against delivery, and, before an
   arrival, either of them at the arrival's time.  With continuous
   arrival and service processes such ties essentially never occur.

   No allocation per packet: every float of the loop lives in a
   floatarray or a float array read and written in place, and the
   helpers that take or return floats are inlined.  A float passed to or
   returned from another module's function would be boxed, since the
   modules are compiled [-opaque]. *)

exception Tie

type t = {
  (* reusable storage, kept across runs via the scenario arena *)
  regs : floatarray;
      (* 0 busy_until, 1 busy_time, 2 next_cross (infinity without a
         cross source) *)
  cross_buf : floatarray; (* pre-generated cross inter-arrival block *)
  (* Every enqueued packet's (finish, tag) pair in send order: packet p
     (counted from the run start) at slot 2 * (p land mask), its tag in
     the slot after, with a power-of-two pair capacity.  Finishes leave
     in send order, and so do the deliveries at finish +. propagation,
     so one ring with two heads holds both pending trains: [fin, tail)
     awaits its transmit finish, [del, tail) its far-end delivery
     (propagation > 0; otherwise del follows fin). *)
  mutable ring : floatarray;
  mutable fin : int;
  mutable del : int;
  mutable tail : int;
  out_t : Fvec.t; (* this chunk's deliveries to the next stage *)
  out_tag : Fvec.t;
  trace : Tracebuf.t;
  (* per-run configuration, set by [configure] *)
  mutable in_t : Fvec.t; (* upstream stage's chunk output *)
  mutable in_tag : Fvec.t;
  mutable rng_cross : Prng.Rng.t option;
  mutable cross_rate : float;
  mutable cross_idx : int;
  mutable propagation : float;
  mutable tx_padded : float;
  mutable tx_cross : float;
  mutable qlimit : int; (* max_int = unlimited *)
  mutable created_at : float;
  (* run counters, flushed transactionally by the orchestrator *)
  mutable in_idx : int;
  mutable depth : int;
  mutable hwm : int;
  mutable dropped : int;
  mutable enqueued : int;
  mutable pend : int; (* padded finish + delivery events pending *)
  mutable max_pend : int;
  mutable events : int; (* events this chunk *)
}

let cross_block = 4096

let create () =
  let empty = Fvec.create ~capacity:1 () in
  {
    regs = Float.Array.make 3 0.0;
    cross_buf = Float.Array.create cross_block;
    ring = Float.Array.create 128;
    fin = 0;
    del = 0;
    tail = 0;
    out_t = Fvec.create ~capacity:1024 ();
    out_tag = Fvec.create ~capacity:1024 ();
    trace = Tracebuf.create ();
    in_t = empty;
    in_tag = empty;
    rng_cross = None;
    cross_rate = 0.0;
    cross_idx = 0;
    propagation = 0.0;
    tx_padded = 0.0;
    tx_cross = 0.0;
    qlimit = max_int;
    created_at = 0.0;
    in_idx = 0;
    depth = 0;
    hwm = 0;
    dropped = 0;
    enqueued = 0;
    pend = 0;
    max_pend = 0;
    events = 0;
  }

let[@inline] slot t p = 2 * (p land ((Float.Array.length t.ring lsr 1) - 1))

let refill t rng =
  Prng.Sampler.exponential_fill rng ~rate:t.cross_rate t.cross_buf
    ~n:cross_block;
  t.cross_idx <- 0

(* Advance the cross arrival train by one draw: next = prev +. dt, the
   same accumulation [Cross_train.step] performs on the event loop. *)
let cross_next t rng =
  if t.cross_idx >= cross_block then refill t rng;
  Float.Array.set t.regs 2
    (Float.Array.get t.regs 2 +. Float.Array.unsafe_get t.cross_buf t.cross_idx);
  t.cross_idx <- t.cross_idx + 1

let[@inline] tx_time ~size_bytes ~bandwidth_bps =
  float_of_int size_bytes *. 8.0 /. bandwidth_bps

(* Slot 0 of [regs] is busy_until, slot 1 the busy-time sum. *)
let[@inline] serve regs ~now ~tx =
  (* A plain compare: neither operand is ever NaN or -0.0, where it
     would differ from [Float.max]. *)
  let busy = Float.Array.get regs 0 in
  let finish = (if now > busy then now else busy) +. tx in
  Float.Array.set regs 0 finish;
  Float.Array.set regs 1 (Float.Array.get regs 1 +. tx);
  finish

(* The busy-time sum counts scheduled transmissions, possibly beyond
   [now]; clip it to the elapsed window. *)
let[@inline] busy_fraction regs ~created_at ~now =
  let elapsed = now -. created_at in
  if elapsed <= 0.0 then 0.0
  else
    let future = Float.max 0.0 (Float.Array.get regs 0 -. now) in
    Float.min 1.0 ((Float.Array.get regs 1 -. future) /. elapsed)

let configure t ~bandwidth_bps ~propagation ~queue_limit ~packet_size
    ~cross ~in_t ~in_tag =
  Float.Array.set t.regs 0 0.0;
  Float.Array.set t.regs 1 0.0;
  Float.Array.set t.regs 2 infinity;
  t.fin <- 0;
  t.del <- 0;
  t.tail <- 0;
  Fvec.clear t.out_t;
  Fvec.clear t.out_tag;
  Tracebuf.clear t.trace;
  t.in_t <- in_t;
  t.in_tag <- in_tag;
  t.propagation <- propagation;
  (* [Link.send] computes tx per packet; here it is computed once per
     size class, from the same operands. *)
  t.tx_padded <- tx_time ~size_bytes:packet_size ~bandwidth_bps;
  t.qlimit <- (match queue_limit with Some l -> l | None -> max_int);
  t.created_at <- 0.0;
  t.in_idx <- 0;
  t.depth <- 0;
  t.hwm <- 0;
  t.dropped <- 0;
  t.enqueued <- 0;
  t.pend <- 0;
  t.max_pend <- 0;
  t.events <- 0;
  match cross with
  | None ->
      t.rng_cross <- None;
      t.cross_rate <- 0.0;
      t.tx_cross <- 0.0
  | Some (rng, rate_pps, size_bytes) ->
      t.rng_cross <- Some rng;
      t.cross_rate <- rate_pps;
      t.tx_cross <- tx_time ~size_bytes ~bandwidth_bps;
      refill t rng;
      (* First arrival: clock (0.0) +. first draw, as Sim.every schedules
         it at source creation. *)
      Float.Array.set t.regs 2 0.0;
      cross_next t rng

(* [Fvec.push], in place. *)
let[@inline] append (v : Fvec.t) x =
  if v.len = Array.length v.data then Fvec.grow v;
  Array.unsafe_set v.data v.len x;
  v.len <- v.len + 1

(* Cross packets (tag -inf) exit at this hop, as [Router] diverts them. *)
let[@inline] deliver t ~time ~tag =
  if tag <> neg_infinity then begin
    append t.out_t time;
    append t.out_tag tag
  end

(* [Link.send] at [now] for a packet with transmit time [tx]. *)
let[@inline] send t ~now ~tag ~tx =
  if t.depth >= t.qlimit then begin
    t.dropped <- t.dropped + 1;
    if Obs.Trace.enabled () then
      Tracebuf.push t.trace ~time:now
        ~code:
          (if tag = neg_infinity then Tracebuf.drop_cross
           else if Float.is_nan tag then Tracebuf.drop_dummy
           else Tracebuf.drop_payload)
        ~x:0.0
  end
  else begin
    let finish = serve t.regs ~now ~tx in
    t.depth <- t.depth + 1;
    t.enqueued <- t.enqueued + 1;
    if t.depth > t.hwm then t.hwm <- t.depth;
    (* Full ring: doubling it by appending a copy keeps every pending
       packet p at slot p land mask under the doubled mask too. *)
    if t.tail - t.del = Float.Array.length t.ring lsr 1 then
      t.ring <- Float.Array.append t.ring t.ring;
    let s = slot t t.tail in
    Float.Array.unsafe_set t.ring s finish;
    Float.Array.unsafe_set t.ring (s + 1) tag;
    t.tail <- t.tail + 1;
    (* A padded packet's finish and delivery are events on the event
       loop, fused when there is no propagation delay. *)
    if tag <> neg_infinity then begin
      t.pend <- t.pend + (if t.propagation > 0.0 then 2 else 1);
      if t.pend > t.max_pend then t.max_pend <- t.pend
    end
  end

(* Pop the pending transmit finishes and far-end deliveries due at or
   before [until], in time order.  With [arrival] an arrival is due at
   [until] itself, and a finish or delivery at that time ties with it. *)
let[@inline] settle t ~until ~arrival =
  let continue = ref true in
  while !continue do
    let tf =
      if t.fin < t.tail then Float.Array.unsafe_get t.ring (slot t t.fin)
      else infinity
    in
    let td =
      if t.propagation > 0.0 && t.del < t.tail then
        Float.Array.unsafe_get t.ring (slot t t.del) +. t.propagation
      else infinity
    in
    let m = if tf < td then tf else td in
    if m > until then continue := false
    else if tf = td || (arrival && m = until) then raise Tie
    else if tf < td then begin
      (* transmit finish: an event for a padded packet only *)
      let tag = Float.Array.unsafe_get t.ring (slot t t.fin + 1) in
      t.fin <- t.fin + 1;
      t.depth <- t.depth - 1;
      if tag <> neg_infinity then begin
        t.events <- t.events + 1;
        t.pend <- t.pend - 1
      end;
      if t.propagation = 0.0 then begin
        t.del <- t.fin;
        deliver t ~time:m ~tag
      end
    end
    else begin
      (* far-end delivery (propagation > 0): an event for a padded
         packet only *)
      let tag = Float.Array.unsafe_get t.ring (slot t t.del + 1) in
      t.del <- t.del + 1;
      if tag <> neg_infinity then begin
        t.events <- t.events + 1;
        t.pend <- t.pend - 1
      end;
      deliver t ~time:m ~tag
    end
  done

let advance t ~until =
  t.events <- 0;
  Fvec.clear t.out_t;
  Fvec.clear t.out_tag;
  t.in_idx <- 0;
  let n_in = t.in_t.len in
  let continue = ref true in
  while !continue do
    let tin =
      if t.in_idx < n_in then Array.unsafe_get t.in_t.data t.in_idx
      else infinity
    in
    let tc = Float.Array.get t.regs 2 in
    if tin < tc && tin <= until then begin
      (* padded send handed down within the upstream stage's event *)
      settle t ~until:tin ~arrival:true;
      let tag = Array.unsafe_get t.in_tag.data t.in_idx in
      t.in_idx <- t.in_idx + 1;
      send t ~now:tin ~tag ~tx:t.tx_padded
    end
    else if tc < tin && tc <= until then begin
      (* cross source tick: one event, even when the send is dropped *)
      settle t ~until:tc ~arrival:true;
      t.events <- t.events + 1;
      send t ~now:tc ~tag:neg_infinity ~tx:t.tx_cross;
      match t.rng_cross with
      | Some rng -> cross_next t rng
      | None -> assert false
    end
    else if tin = tc && tin <= until then
      (* two arrivals at one time: ordered by queue seq in the event
         loop; bail out rather than guess *)
      raise Tie
    else continue := false
  done;
  settle t ~until ~arrival:false

let out_times t = t.out_t
let out_tags t = t.out_tag
let trace t = t.trace
let chunk_events t = t.events
let dropped t = t.dropped
let enqueued t = t.enqueued
let queue_hwm t = t.hwm
let max_pending t = t.max_pend

let utilization t ~now = busy_fraction t.regs ~created_at:t.created_at ~now
