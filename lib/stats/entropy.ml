let of_probabilities ps =
  Array.fold_left
    (fun acc p ->
      if p < 0.0 then invalid_arg "Entropy.of_probabilities: negative mass";
      if p = 0.0 then acc else acc -. (p *. log p))
    0.0 ps

let histogram_plugin h = of_probabilities (Histogram.probabilities h)

let of_sample_in ~bin_width ~reference xs ~pos ~len =
  if len = 0 then invalid_arg "Entropy.of_sample: empty";
  if bin_width <= 0.0 then invalid_arg "Entropy.of_sample: bin_width <= 0";
  let min_x = Descriptive.minimum_in xs ~pos ~len
  and max_x = Descriptive.maximum_in xs ~pos ~len in
  (* Snap the grid origin to multiples of bin_width below the data, anchored
     at [reference], so two samples from the same system share bin edges. *)
  let k_lo = Float.floor ((min_x -. reference) /. bin_width) in
  let lo = reference +. (k_lo *. bin_width) in
  let span = max_x -. lo in
  let bins = Stdlib.max 1 (1 + int_of_float (Float.floor (span /. bin_width))) in
  let h = Histogram.create ~lo ~bin_width ~bins in
  for i = pos to pos + len - 1 do
    Histogram.add h xs.(i)
  done;
  histogram_plugin h

(* talint: allow U001 — oracle: test_stream's reference for Stream.Hist *)
let of_sample ~bin_width ~reference xs =
  of_sample_in ~bin_width ~reference xs ~pos:0 ~len:(Array.length xs)

(* talint: allow U001 — oracle: closed form for the plug-in entropy tests *)
let normal_differential ~sigma =
  if sigma <= 0.0 then invalid_arg "Entropy.normal_differential: sigma <= 0";
  0.5 *. log (2.0 *. Float.pi *. Float.exp 1.0 *. sigma *. sigma)
