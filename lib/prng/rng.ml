(* The four xoshiro256++ state words s0..s3, at byte offsets 0, 8, 16
   and 24.  Read and written through the unboxed bytes primitives: a
   [mutable int64] record field would box a fresh int64 on every store,
   six per step. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* SplitMix64 step: used to expand the seed into the four xoshiro words and
   to derive split children.  Constants from Steele, Lea & Flood (2014). *)
let splitmix_next state =
  let open Int64 in
  let z = add !state 0x9E3779B97F4A7C15L in
  state := z;
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let of_sm64 state =
  let t = Bytes.create 32 in
  (* xoshiro must not be seeded with the all-zero state; SplitMix64 cannot
     produce four zero outputs in a row, so this is safe by construction. *)
  set64 t 0 (splitmix_next state);
  set64 t 8 (splitmix_next state);
  set64 t 16 (splitmix_next state);
  set64 t 24 (splitmix_next state);
  t

let create ~seed =
  let state = ref (Int64.of_int seed) in
  of_sm64 state

(* talint: allow U001 — oracle: test_kernel replays a stream from a copy *)
let copy = Bytes.copy

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* One xoshiro256++ step.  Inlined into every draw below, so the state
   words and the result stay in registers as unboxed int64. *)
let[@inline] next t =
  let open Int64 in
  let s0 = get64 t 0 and s1 = get64 t 8 in
  let s2 = get64 t 16 and s3 = get64 t 24 in
  let result = add (rotl (add s0 s3) 23) s0 in
  let tmp = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  let s1 = logxor s1 s2 in
  let s0 = logxor s0 s3 in
  set64 t 0 s0;
  set64 t 8 s1;
  set64 t 16 (logxor s2 tmp);
  set64 t 24 (rotl s3 45);
  result

(* talint: allow U001 — tests read the raw stream every draw is built on *)
let bits64 t = next t

let split t =
  let state = ref (next t) in
  of_sm64 state

(* The 53 high bits of one step, exact in an OCaml int (and in a float). *)
let[@inline] bits53 t = Int64.to_int (Int64.shift_right_logical (next t) 11)

let[@inline] float t = float_of_int (bits53 t) *. 0x1.0p-53

(* Redraw on zero: the same draws as retrying [float] until it is > 0. *)
let[@inline] float_pos t =
  let b = ref (bits53 t) in
  while !b = 0 do
    b := bits53 t
  done;
  float_of_int !b *. 0x1.0p-53

let float_pos_fill t buf ~n =
  if n < 0 || n > Float.Array.length buf then
    invalid_arg "Rng.float_pos_fill: n out of [0, length buf]";
  for i = 0 to n - 1 do
    Float.Array.unsafe_set buf i (float_pos t)
  done

let float_range t ~lo ~hi =
  (* [not (lo <= hi)] rather than [lo > hi]: NaN must not slip through. *)
  if not (lo <= hi) then invalid_arg "Rng.float_range: requires lo <= hi";
  lo +. ((hi -. lo) *. float t)

(* Rejection sampling on the top bits to avoid modulo bias.  Top-level
   (rather than an inner [let rec] closing over the locals) so the
   per-arrival hot path pays no closure allocation — [Rng.int] sits in
   the A001 closure of [Mux.handle_arrival]. *)
let rec reject_draw t ~limit ~bound64 =
  let v = Int64.shift_right_logical (next t) 1 in
  if v >= limit then reject_draw t ~limit ~bound64
  else Int64.to_int (Int64.rem v bound64)

let int t ~bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let bound64 = Int64.of_int bound in
  let max64 = Int64.max_int in
  let limit = Int64.sub max64 (Int64.rem max64 bound64) in
  reject_draw t ~limit ~bound64

let mix_seed root index =
  (* Two SplitMix64 steps with the index folded in between: a pure,
     order-independent derivation of per-task seeds for parallel work.
     The golden-ratio multiply decorrelates adjacent indices before the
     second finalizer, and the final shift keeps the result a positive
     63-bit OCaml int. *)
  let state = ref (Int64.of_int root) in
  let h = splitmix_next state in
  state := Int64.logxor h (Int64.mul (Int64.of_int index) 0x9E3779B97F4A7C15L);
  Int64.to_int (Int64.shift_right_logical (splitmix_next state) 2)
