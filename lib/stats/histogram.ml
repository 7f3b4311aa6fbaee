type t = {
  lo : float;
  bin_width : float;
  counts : int array;
  mutable total : int;
}

let create ~lo ~bin_width ~bins =
  if bin_width <= 0.0 then invalid_arg "Histogram.create: bin_width <= 0";
  if bins <= 0 then invalid_arg "Histogram.create: bins <= 0";
  { lo; bin_width; counts = Array.make bins 0; total = 0 }

let bins t = Array.length t.counts
let bin_width t = t.bin_width
let lo t = t.lo
(* talint: allow U001 — tests read it to observe live binning *)
let count t = t.total

let index_of t x =
  let i = int_of_float (Float.floor ((x -. t.lo) /. t.bin_width)) in
  if i < 0 then 0 else if i >= bins t then bins t - 1 else i

let add t x =
  let i = index_of t x in
  t.counts.(i) <- t.counts.(i) + 1;
  t.total <- t.total + 1

let check_index t i =
  if i < 0 || i >= bins t then invalid_arg "Histogram: bin index out of range"

(* talint: allow U001 — tests read it to observe live binning *)
let bin_count t i =
  check_index t i;
  t.counts.(i)

let probabilities t =
  if t.total = 0 then Array.make (bins t) 0.0
  else Array.map (fun k -> float_of_int k /. float_of_int t.total) t.counts
