module Acc = struct
  type t = {
    mutable n : int;
    mutable mean : float;
    mutable m2 : float;
    mutable m3 : float;
    mutable m4 : float;
    mutable min : float;
    mutable max : float;
  }

  let create () =
    { n = 0; mean = 0.0; m2 = 0.0; m3 = 0.0; m4 = 0.0;
      min = Float.infinity; max = Float.neg_infinity }

  (* Welford / Pébay one-pass central-moment update. *)
  let add t x =
    let n1 = float_of_int t.n in
    t.n <- t.n + 1;
    let n = float_of_int t.n in
    let delta = x -. t.mean in
    let delta_n = delta /. n in
    let delta_n2 = delta_n *. delta_n in
    let term1 = delta *. delta_n *. n1 in
    t.mean <- t.mean +. delta_n;
    t.m4 <-
      t.m4
      +. (term1 *. delta_n2 *. ((n *. n) -. (3.0 *. n) +. 3.0))
      +. (6.0 *. delta_n2 *. t.m2)
      -. (4.0 *. delta_n *. t.m3);
    t.m3 <- t.m3 +. (term1 *. delta_n *. (n -. 2.0)) -. (3.0 *. delta_n *. t.m2);
    t.m2 <- t.m2 +. term1;
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x

  let merge a b =
    if a.n = 0 then { b with n = b.n }
    else if b.n = 0 then { a with n = a.n }
    else begin
      let na = float_of_int a.n and nb = float_of_int b.n in
      let n = na +. nb in
      let delta = b.mean -. a.mean in
      let delta2 = delta *. delta in
      let delta3 = delta2 *. delta in
      let delta4 = delta3 *. delta in
      let mean = a.mean +. (delta *. nb /. n) in
      let m2 = a.m2 +. b.m2 +. (delta2 *. na *. nb /. n) in
      let m3 =
        a.m3 +. b.m3
        +. (delta3 *. na *. nb *. (na -. nb) /. (n *. n))
        +. (3.0 *. delta *. ((na *. b.m2) -. (nb *. a.m2)) /. n)
      in
      let m4 =
        a.m4 +. b.m4
        +. (delta4 *. na *. nb *. ((na *. na) -. (na *. nb) +. (nb *. nb))
            /. (n *. n *. n))
        +. (6.0 *. delta2 *. ((na *. na *. b.m2) +. (nb *. nb *. a.m2)) /. (n *. n))
        +. (4.0 *. delta *. ((na *. b.m3) -. (nb *. a.m3)) /. n)
      in
      { n = a.n + b.n; mean; m2; m3; m4;
        min = Float.min a.min b.min; max = Float.max a.max b.max }
    end

  let count t = t.n
  let mean t = if t.n = 0 then 0.0 else t.mean
  let variance t = if t.n < 2 then 0.0 else t.m2 /. float_of_int (t.n - 1)
  let population_variance t = if t.n < 1 then 0.0 else t.m2 /. float_of_int t.n
  let std t = sqrt (variance t)

  let skewness t =
    if t.n < 3 || t.m2 = 0.0 then 0.0
    else
      let n = float_of_int t.n in
      sqrt n *. t.m3 /. (t.m2 ** 1.5)

  let kurtosis_excess t =
    if t.n < 4 || t.m2 = 0.0 then 0.0
    else
      let n = float_of_int t.n in
      (n *. t.m4 /. (t.m2 *. t.m2)) -. 3.0

  let min t =
    if t.n = 0 then invalid_arg "Descriptive.Acc.min: empty";
    t.min

  let max t =
    if t.n = 0 then invalid_arg "Descriptive.Acc.max: empty";
    t.max
end

(* The [_in] variants compute over the subarray [pos, pos + len) without
   copying it, in the exact iteration order of the whole-array versions,
   so [f_in xs ~pos:0 ~len:(Array.length xs)] is bit-identical to [f xs].
   They are what lets the adversary's window scoring stay allocation-free
   (no Array.sub per window). *)

let check_view name xs ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Array.length xs then
    invalid_arg ("Descriptive." ^ name ^ ": view out of bounds")

let mean_in xs ~pos ~len =
  check_view "mean_in" xs ~pos ~len;
  if len = 0 then invalid_arg "Descriptive.mean_in: empty";
  let acc = ref 0.0 in
  for i = pos to pos + len - 1 do
    acc := !acc +. Array.unsafe_get xs i
  done;
  !acc /. float_of_int len

let mean xs =
  if Array.length xs = 0 then invalid_arg "Descriptive.mean: empty";
  mean_in xs ~pos:0 ~len:(Array.length xs)

let variance_in xs ~pos ~len =
  check_view "variance_in" xs ~pos ~len;
  if len < 2 then invalid_arg "Descriptive.variance_in: need n >= 2";
  let m = mean_in xs ~pos ~len in
  let acc = ref 0.0 in
  for i = pos to pos + len - 1 do
    let d = Array.unsafe_get xs i -. m in
    acc := !acc +. (d *. d)
  done;
  !acc /. float_of_int (len - 1)

let variance xs =
  if Array.length xs < 2 then invalid_arg "Descriptive.variance: need n >= 2";
  variance_in xs ~pos:0 ~len:(Array.length xs)

let std xs = sqrt (variance xs)

let quantile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Descriptive.quantile: empty";
  if p < 0.0 || p > 1.0 then invalid_arg "Descriptive.quantile: p out of [0,1]";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let h = p *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor h) in
  let hi = Stdlib.min (lo + 1) (n - 1) in
  let frac = h -. float_of_int lo in
  sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))

let minimum_in xs ~pos ~len =
  check_view "minimum_in" xs ~pos ~len;
  if len = 0 then invalid_arg "Descriptive.minimum_in: empty";
  let acc = ref xs.(pos) in
  for i = pos to pos + len - 1 do
    acc := Float.min !acc (Array.unsafe_get xs i)
  done;
  !acc

let maximum_in xs ~pos ~len =
  check_view "maximum_in" xs ~pos ~len;
  if len = 0 then invalid_arg "Descriptive.maximum_in: empty";
  let acc = ref xs.(pos) in
  for i = pos to pos + len - 1 do
    acc := Float.max !acc (Array.unsafe_get xs i)
  done;
  !acc
