type t = { points : float array; h : float }

let silverman xs =
  let n = float_of_int (Array.length xs) in
  let sd = if Array.length xs >= 2 then Descriptive.std xs else 0.0 in
  let iqr = Descriptive.quantile xs 0.75 -. Descriptive.quantile xs 0.25 in
  let spread =
    match (sd > 0.0, iqr > 0.0) with
    | true, true -> Float.min sd (iqr /. 1.34)
    | true, false -> sd
    | false, true -> iqr /. 1.34
    | false, false -> 0.0
  in
  let h = 0.9 *. spread *. (n ** -0.2) in
  if h > 0.0 then h
  else
    (* Degenerate (constant) data: fall back to a width proportional to the
       magnitude of the data so the density stays proper. *)
    let scale = Float.max (Float.abs xs.(0)) 1e-12 in
    1e-6 *. scale

let fit ?bandwidth xs =
  if Array.length xs = 0 then invalid_arg "Kde.fit: empty";
  let h =
    match bandwidth with
    | Some h when h <= 0.0 -> invalid_arg "Kde.fit: bandwidth <= 0"
    | Some h -> h
    | None -> silverman xs
  in
  { points = Array.copy xs; h }

let bandwidth t = t.h
let sample_size t = Array.length t.points

let pdf t x =
  let pts = t.points in
  let n = Array.length pts in
  let inv_h = 1.0 /. t.h in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    let z = (x -. Array.unsafe_get pts i) *. inv_h in
    acc := !acc +. exp (-0.5 *. z *. z)
  done;
  !acc /. (float_of_int n *. t.h *. sqrt (2.0 *. Float.pi))

(* log-sum-exp over kernel exponents: a max pass, then a sum pass that
   recomputes each exponent with the same operations in the same order,
   so it matches the exponent the max pass saw bit for bit. *)
let log_pdf t x =
  let pts = t.points in
  let n = Array.length pts in
  let inv_h = 1.0 /. t.h in
  let max_e = ref Float.neg_infinity in
  for i = 0 to n - 1 do
    let z = (x -. Array.unsafe_get pts i) *. inv_h in
    let e = -0.5 *. z *. z in
    if e > !max_e then max_e := e
  done;
  let max_e = !max_e in
  let sum = ref 0.0 in
  for i = 0 to n - 1 do
    let z = (x -. Array.unsafe_get pts i) *. inv_h in
    sum := !sum +. exp ((-0.5 *. z *. z) -. max_e)
  done;
  max_e +. log !sum -. log (float_of_int n *. t.h *. sqrt (2.0 *. Float.pi))

let cdf t x =
  let n = float_of_int (Array.length t.points) in
  let acc = ref 0.0 in
  Array.iter
    (fun xi -> acc := !acc +. Special.normal_cdf ~mu:xi ~sigma:t.h x)
    t.points;
  !acc /. n

let support t =
  let lo = Descriptive.minimum t.points -. (6.0 *. t.h) in
  let hi = Descriptive.maximum t.points +. (6.0 *. t.h) in
  (lo, hi)
