(* The plug-in sum runs over the occupied bins only, in increasing bin
   index, with the float operations of a dense histogram pass: p = c / n
   and acc - p ln p from 0.  A grid of at most [dense_bins_per_sample]
   bins per sample is counted in place; a wider one (a window holding a
   gap) sorts its bin indices and counts runs.  Both use one int scratch
   that only grows, so no allocation follows the span; it is per domain
   because [Exec.Pool] extracts features in several domains at once. *)

(* The measured crossover: both strategies take the same time at about 8
   bins per sample for windows of 50 to 1 000 samples (DESIGN.md §3). *)
let dense_bins_per_sample = 8

let no_ints () : int array = [||]
let scratch = Domain.DLS.new_key no_ints

let ints need =
  let a = Domain.DLS.get scratch in
  if Array.length a >= need then a
  else begin
    let a = Array.make (Stdlib.max need (2 * Array.length a)) 0 in
    Domain.DLS.set scratch a;
    a
  end

let[@inline] bin_of ~lo ~bin_width ~bins x =
  let i = int_of_float (Float.floor ((x -. lo) /. bin_width)) in
  if i < 0 then 0 else if i >= bins then bins - 1 else i

let[@inline] minus_p_ln_p acc c n =
  let p = float_of_int c /. n in
  acc -. (p *. log p)

(* In-place introsort of [a.(lo .. hi)]: median-of-three quicksort,
   insertion sort below 16 elements and heapsort past a depth of
   2 log2 n.  Monomorphic, no closure, no allocation, O(n log n) on any
   input. *)
let[@inline] swap (a : int array) i j =
  let t = Array.unsafe_get a i in
  Array.unsafe_set a i (Array.unsafe_get a j);
  Array.unsafe_set a j t

let insertion_sort (a : int array) lo hi =
  for i = lo + 1 to hi do
    let x = Array.unsafe_get a i in
    let j = ref (i - 1) in
    while !j >= lo && Array.unsafe_get a !j > x do
      Array.unsafe_set a (!j + 1) (Array.unsafe_get a !j);
      decr j
    done;
    Array.unsafe_set a (!j + 1) x
  done

(* Heap of [a.(lo .. lo + n - 1)], node [i] stored at [lo + i]. *)
let sift_down (a : int array) lo i n =
  let x = Array.unsafe_get a (lo + i) in
  let i = ref i and sifting = ref true in
  while !sifting do
    let child = (2 * !i) + 1 in
    if child >= n then sifting := false
    else begin
      let child =
        if child + 1 < n
           && Array.unsafe_get a (lo + child + 1) > Array.unsafe_get a (lo + child)
        then child + 1
        else child
      in
      let c = Array.unsafe_get a (lo + child) in
      if c > x then begin
        Array.unsafe_set a (lo + !i) c;
        i := child
      end
      else sifting := false
    end
  done;
  Array.unsafe_set a (lo + !i) x

let heapsort (a : int array) lo hi =
  let n = hi - lo + 1 in
  for i = (n / 2) - 1 downto 0 do
    sift_down a lo i n
  done;
  for last = n - 1 downto 1 do
    swap a lo (lo + last);
    sift_down a lo 0 last
  done

let rec introsort (a : int array) lo hi depth =
  if hi - lo < 16 then insertion_sort a lo hi
  else if depth = 0 then heapsort a lo hi
  else begin
    let x = Array.unsafe_get a lo
    and y = Array.unsafe_get a ((lo + hi) / 2)
    and z = Array.unsafe_get a hi in
    let pivot =
      if x < y then if y < z then y else if x < z then z else x
      else if x < z then x
      else if y < z then z
      else y
    in
    let i = ref lo and j = ref hi in
    while !i <= !j do
      while Array.unsafe_get a !i < pivot do incr i done;
      while Array.unsafe_get a !j > pivot do decr j done;
      if !i <= !j then begin
        swap a !i !j;
        incr i;
        decr j
      end
    done;
    introsort a lo !j (depth - 1);
    introsort a !i hi (depth - 1)
  end

let sort_prefix a n =
  let depth = ref 0 and m = ref n in
  while !m > 1 do
    incr depth;
    m := !m / 2
  done;
  introsort a 0 (n - 1) (2 * !depth)

let dense_count ~lo ~bin_width ~bins xs ~pos ~len =
  let counts = ints bins in
  Array.fill counts 0 bins 0;
  for i = pos to pos + len - 1 do
    let k = bin_of ~lo ~bin_width ~bins (Array.unsafe_get xs i) in
    Array.unsafe_set counts k (Array.unsafe_get counts k + 1)
  done;
  let n = float_of_int len in
  let acc = ref 0.0 in
  for k = 0 to bins - 1 do
    let c = Array.unsafe_get counts k in
    if c > 0 then acc := minus_p_ln_p !acc c n
  done;
  !acc

let sorted_runs ~lo ~bin_width ~bins xs ~pos ~len =
  let idx = ints len in
  for i = 0 to len - 1 do
    Array.unsafe_set idx i
      (bin_of ~lo ~bin_width ~bins (Array.unsafe_get xs (pos + i)))
  done;
  sort_prefix idx len;
  let n = float_of_int len in
  let acc = ref 0.0 and run = ref 1 in
  for j = 1 to len - 1 do
    if Array.unsafe_get idx j = Array.unsafe_get idx (j - 1) then incr run
    else begin
      acc := minus_p_ln_p !acc !run n;
      run := 1
    end
  done;
  minus_p_ln_p !acc !run n

let of_sample_in ~bin_width ~reference xs ~pos ~len =
  if len = 0 then invalid_arg "Entropy.of_sample: empty";
  if bin_width <= 0.0 then invalid_arg "Entropy.of_sample: bin_width <= 0";
  if not (Float.is_finite bin_width) then
    invalid_arg "Entropy.of_sample: bin_width not finite";
  if not (Float.is_finite reference) then
    invalid_arg "Entropy.of_sample: reference not finite";
  (* The minimum and maximum are NaN if any sample is, so checking them
     checks every sample. *)
  let min_x = Descriptive.minimum_in xs ~pos ~len
  and max_x = Descriptive.maximum_in xs ~pos ~len in
  if not (Float.is_finite min_x && Float.is_finite max_x) then
    invalid_arg "Entropy.of_sample: sample not finite";
  (* Snap the grid origin to multiples of bin_width below the data, anchored
     at [reference], so two samples from the same system share bin edges. *)
  let k_lo = Float.floor ((min_x -. reference) /. bin_width) in
  let lo = reference +. (k_lo *. bin_width) in
  let top = Float.floor ((max_x -. lo) /. bin_width) in
  if not (Float.is_finite lo && top < 0x1p62) then
    invalid_arg "Entropy.of_sample: grid too wide for an int";
  let bins = if top < 0.0 then 1 else 1 + int_of_float top in
  if bins <= dense_bins_per_sample * len then
    dense_count ~lo ~bin_width ~bins xs ~pos ~len
  else sorted_runs ~lo ~bin_width ~bins xs ~pos ~len

(* talint: allow U001 — oracle: test_stream's reference for Stream.Hist *)
let of_sample ~bin_width ~reference xs =
  of_sample_in ~bin_width ~reference xs ~pos:0 ~len:(Array.length xs)

(* talint: allow U001 — oracle: closed form for the plug-in entropy tests *)
let normal_differential ~sigma =
  if sigma <= 0.0 then invalid_arg "Entropy.normal_differential: sigma <= 0";
  0.5 *. log (2.0 *. Float.pi *. Float.exp 1.0 *. sigma *. sigma)
