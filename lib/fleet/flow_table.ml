(* Fixed-width SoA per-flow state table.

   One unboxed float column per counter (packets, bytes, dummies,
   last-activity time) plus one byte per flow for the rate class — the
   fastnetmon map_element_t idiom: a flat fixed-width record per flow,
   allocated once, never reallocated.  Counters are integer-valued
   floats, exact up to 2^53, so per-index merge addition is associative
   and commutative and merged tables are independent of merge order.

   A table covers a contiguous global flow-id window [lo, lo + width):
   mux shards each own a disjoint window, allocate only their slice, and
   the windows are united by [merge]. *)

type t = {
  lo : int;
  n : int;
  packets : floatarray;
  bytes : floatarray;
  dummies : floatarray;
  last_activity : floatarray;
  classes : Bytes.t;
}

type snapshot = t

let create ?(lo = 0) ~flows () =
  if flows < 1 then invalid_arg "Flow_table.create: flows < 1";
  if lo < 0 then invalid_arg "Flow_table.create: lo < 0";
  {
    lo;
    n = flows;
    packets = Float.Array.make flows 0.0;
    bytes = Float.Array.make flows 0.0;
    dummies = Float.Array.make flows 0.0;
    last_activity = Float.Array.make flows neg_infinity;
    classes = Bytes.make flows '\000';
  }

let lo t = t.lo
(* talint: allow U001 — tests read it to observe live Mux tables *)
let width t = t.n
let hi t = t.lo + t.n

let idx t ~flow =
  let i = flow - t.lo in
  if i < 0 || i >= t.n then
    invalid_arg
      (Printf.sprintf "Flow_table: flow %d outside [%d, %d)" flow t.lo
         (t.lo + t.n));
  i

let record t ~flow ~bytes ~now =
  let i = idx t ~flow in
  Float.Array.unsafe_set t.packets i
    (Float.Array.unsafe_get t.packets i +. 1.0);
  Float.Array.unsafe_set t.bytes i
    (Float.Array.unsafe_get t.bytes i +. float_of_int bytes);
  Float.Array.unsafe_set t.last_activity i now

let spread_dummies t ~count =
  if count < 0 then invalid_arg "Flow_table.spread_dummies: count < 0";
  let q = count / t.n and r = count mod t.n in
  for i = 0 to t.n - 1 do
    let share = q + if i < r then 1 else 0 in
    if share > 0 then
      Float.Array.unsafe_set t.dummies i
        (Float.Array.unsafe_get t.dummies i +. float_of_int share)
  done

let set_class t ~flow cls =
  if cls < 0 || cls > 255 then
    invalid_arg "Flow_table.set_class: class outside [0, 255]";
  Bytes.unsafe_set t.classes (idx t ~flow) (Char.unsafe_chr cls)

(* talint: allow U001 — tests read it to observe live Mux tables *)
let rate_class t ~flow = Char.code (Bytes.unsafe_get t.classes (idx t ~flow))
(* talint: allow U001 — tests read it to observe live Mux tables *)
let packets t ~flow = Float.Array.unsafe_get t.packets (idx t ~flow)
let bytes t ~flow = Float.Array.unsafe_get t.bytes (idx t ~flow)
(* talint: allow U001 — tests read it to observe live Mux tables *)
let dummies t ~flow = Float.Array.unsafe_get t.dummies (idx t ~flow)

(* talint: allow U001 — tests read it to observe live Mux tables *)
let last_activity t ~flow =
  Float.Array.unsafe_get t.last_activity (idx t ~flow)

let sum col n =
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. Float.Array.unsafe_get col i
  done;
  !acc

(* talint: allow U001 — tests read it to observe live Mux tables *)
let total_packets t = sum t.packets t.n
(* talint: allow U001 — tests read it to observe live Mux tables *)
let total_bytes t = sum t.bytes t.n
(* talint: allow U001 — tests read it to observe live Mux tables *)
let total_dummies t = sum t.dummies t.n

let active t ~since =
  let acc = ref 0 in
  for i = 0 to t.n - 1 do
    if Float.Array.unsafe_get t.last_activity i >= since then incr acc
  done;
  !acc

(* Union of the two windows; per-flow counters add (exact: integer-valued
   floats), last-activity and class merge by max.  Flows covered by
   neither input stay at their created-empty state, so merging
   non-adjacent windows materializes the gap consistently. *)
let merge a b =
  let lo = Stdlib.min a.lo b.lo in
  let hi = Stdlib.max (a.lo + a.n) (b.lo + b.n) in
  let t = create ~lo ~flows:(hi - lo) () in
  let add (s : snapshot) =
    let off = s.lo - lo in
    for i = 0 to s.n - 1 do
      let j = off + i in
      Float.Array.unsafe_set t.packets j
        (Float.Array.unsafe_get t.packets j
        +. Float.Array.unsafe_get s.packets i);
      Float.Array.unsafe_set t.bytes j
        (Float.Array.unsafe_get t.bytes j +. Float.Array.unsafe_get s.bytes i);
      Float.Array.unsafe_set t.dummies j
        (Float.Array.unsafe_get t.dummies j
        +. Float.Array.unsafe_get s.dummies i);
      Float.Array.unsafe_set t.last_activity j
        (Float.max
           (Float.Array.unsafe_get t.last_activity j)
           (Float.Array.unsafe_get s.last_activity i));
      Bytes.unsafe_set t.classes j
        (Char.unsafe_chr
           (Stdlib.max
              (Char.code (Bytes.unsafe_get t.classes j))
              (Char.code (Bytes.unsafe_get s.classes i))))
    done
  in
  add a;
  add b;
  t
