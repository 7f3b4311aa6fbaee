(* Structure-of-arrays binary min-heap.

   The heap itself lives in three parallel unboxed arrays — [times]
   (floatarray), [seqs] and [slots] (int arrays) — so sift operations
   touch no OCaml block pointers and never trip the write barrier.
   Payloads sit in a side [payloads] array indexed through [slots]; a
   payload is written exactly once per push and read exactly once per
   pop, and the slot indices are recycled through an explicit free-list
   stack ([free], [free_len]).

   The payload store is created lazily from the first pushed value, so
   no [Obj.magic] dummy is ever manufactured; popped slots keep their
   stale payload until the slot is reused, which pins at most one
   queue-capacity's worth of dead values — bounded by the high-water
   mark, and recycled on the next push.

   Invariant: the [len] heap slots plus the [free_len] free slots
   partition [0, capacity).  Ordering is (time, seq): seq is a per-queue
   push counter, so ties in time pop in insertion order.  The heap
   layout is an implementation detail — pop order is the total (time,
   seq) order regardless of sift strategy — which is what makes this
   rewrite byte-identical to the boxed-entry heap it replaces. *)

type 'a t = {
  mutable times : floatarray;
  mutable seqs : int array;
  mutable slots : int array;
  mutable payloads : 'a array; (* empty until the first push *)
  mutable free : int array;
  mutable free_len : int;
  mutable len : int;
  mutable next_seq : int;
}

let create () =
  {
    times = Float.Array.create 0;
    seqs = [||];
    slots = [||];
    payloads = [||];
    free = [||];
    free_len = 0;
    len = 0;
    next_seq = 0;
  }

let is_empty t = t.len = 0
let size t = t.len

let capacity t = Array.length t.slots

(* Only called with [t.len = capacity] (so the free stack is empty) and
   with the payload about to be pushed, which seeds the lazily-created
   payload store. *)
let grow t seed_payload =
  let cap = capacity t in
  let new_cap = if cap = 0 then 16 else cap * 2 in
  let times = Float.Array.create new_cap in
  Float.Array.blit t.times 0 times 0 t.len;
  let seqs = Array.make new_cap 0 in
  Array.blit t.seqs 0 seqs 0 t.len;
  let slots = Array.make new_cap 0 in
  Array.blit t.slots 0 slots 0 t.len;
  let payloads = Array.make new_cap seed_payload in
  Array.blit t.payloads 0 payloads 0 cap;
  let free = Array.make new_cap 0 in
  (* The slots cap .. new_cap-1 are brand new and all free. *)
  for i = 0 to new_cap - cap - 1 do
    free.(i) <- cap + i
  done;
  t.times <- times;
  t.seqs <- seqs;
  t.slots <- slots;
  t.payloads <- payloads;
  t.free <- free;
  t.free_len <- new_cap - cap

let push t ~time payload =
  if Float.is_nan time then invalid_arg "Event_queue.push: NaN time";
  if t.len = capacity t then grow t payload;
  let slot = t.free.(t.free_len - 1) in
  t.free_len <- t.free_len - 1;
  t.payloads.(slot) <- payload;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  (* Sift up with a hole: move later parents down, then drop the new
     entry in place.  Same comparisons as a swap loop, fewer writes. *)
  let times = t.times and seqs = t.seqs and slots = t.slots in
  let i = ref t.len in
  t.len <- t.len + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pt = Float.Array.get times parent in
    if time < pt || (time = pt && seq < seqs.(parent)) then begin
      Float.Array.set times !i pt;
      seqs.(!i) <- seqs.(parent);
      slots.(!i) <- slots.(parent);
      i := parent
    end
    else continue := false
  done;
  Float.Array.set times !i time;
  seqs.(!i) <- seq;
  slots.(!i) <- slot

let min_time t =
  if t.len = 0 then invalid_arg "Event_queue.min_time: empty queue";
  Float.Array.get t.times 0

(* Remove the root entry; the caller has already read it out. *)
let remove_root t =
  t.len <- t.len - 1;
  if t.len > 0 then begin
    let times = t.times and seqs = t.seqs and slots = t.slots in
    let last = t.len in
    let lt = Float.Array.get times last in
    let ls = seqs.(last) in
    let lslot = slots.(last) in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      if l >= t.len then continue := false
      else begin
        (* Pick the earlier child. *)
        let c =
          if r >= t.len then l
          else begin
            let ltime = Float.Array.get times l and rtime = Float.Array.get times r in
            if rtime < ltime || (rtime = ltime && seqs.(r) < seqs.(l)) then r
            else l
          end
        in
        let ct = Float.Array.get times c in
        if ct < lt || (ct = lt && seqs.(c) < ls) then begin
          Float.Array.set times !i ct;
          seqs.(!i) <- seqs.(c);
          slots.(!i) <- slots.(c);
          i := c
        end
        else continue := false
      end
    done;
    Float.Array.set times !i lt;
    seqs.(!i) <- ls;
    slots.(!i) <- lslot
  end

let pop_exn t =
  if t.len = 0 then invalid_arg "Event_queue.pop_exn: empty queue";
  let slot = t.slots.(0) in
  let payload = t.payloads.(slot) in
  t.free.(t.free_len) <- slot;
  t.free_len <- t.free_len + 1;
  remove_root t;
  payload

let pop t =
  if t.len = 0 then None
  else begin
    let time = Float.Array.get t.times 0 in
    let payload = pop_exn t in
    Some (time, payload)
  end

let clear t =
  t.len <- 0;
  t.next_seq <- 0;
  let cap = capacity t in
  for i = 0 to cap - 1 do
    t.free.(i) <- i
  done;
  t.free_len <- cap
