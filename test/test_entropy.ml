(* Entropy estimators: exact discrete values, the paper's eq. 24/25
   estimator against the closed-form Gaussian entropy, the occupied-bin
   estimator against the dense histogram pass it replaced (bit for bit),
   binning known answers, and properties. *)

let close ?(tol = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > tol then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let entropy ?(bin_width = 1.0) ?(reference = 0.0) xs =
  Stats.Entropy.of_sample ~bin_width ~reference (Array.of_list xs)

(* The plug-in sum over bin counts, in the order given: -Σ p ln p with
   p = c / n. *)
let of_counts counts =
  let n = float_of_int (List.fold_left ( + ) 0 counts) in
  List.fold_left
    (fun acc c ->
      let p = float_of_int c /. n in
      acc -. (p *. log p))
    0.0 counts

(* The dense histogram pass [of_sample_in] replaced, kept as its oracle:
   a count for every bin of the grid from the anchored edge below the
   smallest sample to the bin of the largest, a probability vector, and
   the plug-in sum over it in bin order, skipping empty bins. *)
let dense_oracle ~bin_width ~reference xs =
  let min_x = Array.fold_left Float.min xs.(0) xs
  and max_x = Array.fold_left Float.max xs.(0) xs in
  let k_lo = Float.floor ((min_x -. reference) /. bin_width) in
  let lo = reference +. (k_lo *. bin_width) in
  let span = max_x -. lo in
  let bins = max 1 (1 + int_of_float (Float.floor (span /. bin_width))) in
  let counts = Array.make bins 0 in
  Array.iter
    (fun x ->
      let i = int_of_float (Float.floor ((x -. lo) /. bin_width)) in
      let i = if i < 0 then 0 else if i >= bins then bins - 1 else i in
      counts.(i) <- counts.(i) + 1)
    xs;
  let total = float_of_int (Array.length xs) in
  let ps = Array.map (fun c -> float_of_int c /. total) counts in
  Array.fold_left
    (fun acc p -> if p = 0.0 then acc else acc -. (p *. log p))
    0.0 ps

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let check_bits msg expected actual =
  if not (same_bits expected actual) then
    Alcotest.failf "%s: expected %h, got %h" msg expected actual

let test_uniform_probabilities () =
  close "H(uniform k=4) = ln 4" (log 4.0)
    (entropy [ 0.5; 0.6; 1.5; 1.6; 2.5; 2.6; 3.5; 3.6 ])

let test_deterministic () =
  close "H(point mass) = 0" 0.0 (entropy [ 3.1; 3.2; 3.9 ])

let test_binary () =
  let p = 0.3 in
  let expected = -.((p *. log p) +. ((1.0 -. p) *. log (1.0 -. p))) in
  let sample far =
    List.init 3 (fun i -> 0.1 *. float_of_int i)
    @ List.init 7 (fun i -> far +. (0.1 *. float_of_int i))
  in
  close "binary entropy, adjacent bins" expected (entropy (sample 2.0));
  close "binary entropy, bins 10^4 apart" expected (entropy (sample 1e4))

let test_non_finite_raises () =
  let raises msg f =
    Alcotest.check_raises msg (Invalid_argument msg) (fun () -> ignore (f ()))
  in
  let xs = [ 0.010; 0.011; 0.012 ] in
  List.iter
    (fun bin_width ->
      raises "Entropy.of_sample: bin_width not finite" (fun () ->
          entropy ~bin_width xs))
    [ Float.nan; Float.infinity ];
  List.iter
    (fun reference ->
      raises "Entropy.of_sample: reference not finite" (fun () ->
          entropy ~bin_width:1e-6 ~reference xs))
    [ Float.nan; Float.infinity ];
  List.iter
    (fun x ->
      raises "Entropy.of_sample: sample not finite" (fun () ->
          entropy ~bin_width:1e-6 (xs @ [ x ]));
      raises "Entropy.of_sample: sample not finite" (fun () ->
          entropy ~bin_width:1e-6 (x :: xs)))
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  (* 10^13 s at 1 us is 10^19 bins, past max_int. *)
  raises "Entropy.of_sample: grid too wide for an int" (fun () ->
      entropy ~bin_width:1e-6 (xs @ [ 1e13 ]));
  (* An origin that overflows: (1e300 - 0) / 1e-10 is infinite. *)
  raises "Entropy.of_sample: grid too wide for an int" (fun () ->
      entropy ~bin_width:1e-10 [ 1e300; 1e300 ])

let test_histogram_plugin_uniform () =
  close "plugin = ln 4" (log 4.0) (entropy [ 0.5; 1.5; 2.5; 3.5 ])

let test_normal_differential_formula () =
  close "H(N(0,1))" (0.5 *. log (2.0 *. Float.pi *. Float.exp 1.0))
    (Stats.Entropy.normal_differential ~sigma:1.0);
  (* doubling sigma adds ln 2 *)
  close "scale law" (log 2.0)
    (Stats.Entropy.normal_differential ~sigma:2.0
    -. Stats.Entropy.normal_differential ~sigma:1.0)

let test_estimator_matches_gaussian () =
  (* eq. 24 estimator on a big Gaussian sample should approach the
     closed-form differential entropy (Moddemeijer 1989). *)
  let rng = Prng.Rng.create ~seed:51 in
  let sigma = 2.5 in
  let xs = Array.init 60_000 (fun _ -> Prng.Sampler.normal rng ~mu:1.0 ~sigma) in
  let bin_width = 0.1 in
  let plugin = Stats.Entropy.of_sample ~bin_width ~reference:1.0 xs in
  let differential = plugin +. log bin_width in
  let exact = Stats.Entropy.normal_differential ~sigma in
  close ~tol:0.02 "plugin + ln dh ~ H" exact differential

let test_estimator_monotone_in_sigma () =
  (* The whole attack rests on this: higher sigma -> higher sample
     entropy at fixed bin width. *)
  let rng = Prng.Rng.create ~seed:52 in
  let entropy sigma =
    let xs = Array.init 20_000 (fun _ -> Prng.Sampler.normal rng ~mu:0.0 ~sigma) in
    Stats.Entropy.of_sample ~bin_width:0.05 ~reference:0.0 xs
  in
  let h1 = entropy 1.0 and h2 = entropy 1.3 in
  Alcotest.(check bool) "H(sigma=1.3) > H(sigma=1)" true (h2 > h1)

let test_estimator_grid_anchoring () =
  (* Same data shifted by an integer number of bins: identical entropy. *)
  let rng = Prng.Rng.create ~seed:53 in
  let xs = Array.init 5_000 (fun _ -> Prng.Sampler.normal rng ~mu:0.0 ~sigma:1.0) in
  let shifted = Array.map (fun x -> x +. 0.4) xs in
  let h0 = Stats.Entropy.of_sample ~bin_width:0.1 ~reference:0.0 xs in
  let h1 = Stats.Entropy.of_sample ~bin_width:0.1 ~reference:0.4 shifted in
  close ~tol:1e-9 "anchored grids agree" h0 h1

let test_estimator_invalid () =
  Alcotest.check_raises "empty" (Invalid_argument "Entropy.of_sample: empty")
    (fun () ->
      ignore (Stats.Entropy.of_sample ~bin_width:0.1 ~reference:0.0 [||]));
  Alcotest.check_raises "bad width"
    (Invalid_argument "Entropy.of_sample: bin_width <= 0") (fun () ->
      ignore (Stats.Entropy.of_sample ~bin_width:0.0 ~reference:0.0 [| 1.0 |]))

(* The bin grid's own argument checks, on the view entry point: a width
   that is not positive, and a view that leaves the array. *)
let test_grid_invalid () =
  List.iter
    (fun bin_width ->
      Alcotest.check_raises "bad width"
        (Invalid_argument "Entropy.of_sample: bin_width <= 0") (fun () ->
          ignore
            (Stats.Entropy.of_sample_in ~bin_width ~reference:0.0
               [| 1.0; 2.0 |] ~pos:0 ~len:2)))
    [ 0.0; -0.1 ];
  List.iter
    (fun (pos, len) ->
      Alcotest.check_raises "view out of bounds"
        (Invalid_argument "Descriptive.minimum_in: view out of bounds")
        (fun () ->
          ignore
            (Stats.Entropy.of_sample_in ~bin_width:0.1 ~reference:0.0
               [| 1.0; 2.0 |] ~pos ~len)))
    [ (-1, 1); (0, 3); (2, 1); (1, -1) ]

let test_basic_binning () =
  (* Bins [0,1) [1,2) [2,3) [3,4) hold 1, 2, 0 and 1 of the 4 values. *)
  close "counts 1, 2, 1 of 4" (of_counts [ 1; 2; 1 ])
    (entropy [ 0.5; 1.5; 1.7; 3.9 ])

let test_boundary_goes_up () =
  (* 1.0 sits on an edge and counts in [1,2): 2 + 2, not 3 + 1. *)
  close "edge value in upper bin" (log 2.0) (entropy [ 0.2; 0.5; 1.0; 1.5 ])

let test_clamping () =
  (* Anchored at 0.1 with width 0.1, the edge below 3.5 rounds to
     3.5000000000000004, above the smallest sample: 3.5 indexes bin -1 and
     counts in bin 0 with 3.55, as in the dense pass. *)
  let xs = [ 3.5; 3.55; 3.65; 3.66; 3.67 ] in
  close "low index clamped" (of_counts [ 2; 3 ])
    (entropy ~bin_width:0.1 ~reference:0.1 xs);
  close "low index clamped, sorted runs" (of_counts [ 2; 3; 1 ])
    (entropy ~bin_width:0.1 ~reference:0.1 (1000.05 :: xs))

let test_probabilities_sum () =
  close "masses 1/5, 2/5, 1/5, 1/5" (of_counts [ 1; 2; 1; 1 ])
    (entropy [ 1.0; 2.0; 2.5; 3.0; 7.0 ])

(* A 1 000-PIAT window: 500 values in one 1 us bin, 499 ten bins up, one
   [gap] seconds later. *)
let gap_window gap =
  Array.init 1000 (fun i ->
      if i = 999 then 0.010 +. gap
      else if i mod 2 = 0 then 0.0100002
      else 0.0100102)

let test_huge_span () =
  (* 10^5 s at 1 us is 10^11 bins: the dense pass ran out of memory. *)
  check_bits "counts 500, 499, 1 of 1000" (of_counts [ 500; 499; 1 ])
    (Stats.Entropy.of_sample ~bin_width:1e-6 ~reference:0.010
       (gap_window 1e5))

let test_oracle_both_strategies () =
  List.iter
    (fun gap ->
      let xs = gap_window gap in
      let expected = dense_oracle ~bin_width:1e-6 ~reference:0.010 xs in
      check_bits
        (Printf.sprintf "gap %g s" gap)
        expected
        (Stats.Entropy.of_sample ~bin_width:1e-6 ~reference:0.010 xs))
    [ 1e-3; 1.0 ]

(* Generated windows: PIATs around a 10 ms period with spread sigma,
   duplicates, and up to three gaps log-uniform in 1 us .. 1 s.  Narrow
   windows mostly take the dense count, gapped ones the sorted runs.  The
   reference is near the period, with values on both sides of it, or far
   above the data.  Half the windows hold whole microseconds, as a
   capture file does, with a reference on the same grid and a bin width
   of 0.25 to 4 us in powers of two: their minimum then often sits on a
   bin edge that the anchored origin rounds past, indexes bin -1 and is
   clamped. *)
type spec = {
  len : int;
  bin_width : float;
  reference : float;
  sigma : float;
  gaps : int;
  whole_us : bool;
  seed : int;
}

let to_whole_us x = Float.round (x *. 1e6) /. 1e6

let window s =
  let rng = Prng.Rng.create ~seed:s.seed in
  let xs =
    Array.init s.len (fun _ -> Prng.Sampler.normal rng ~mu:0.010 ~sigma:s.sigma)
  in
  for i = 1 to s.len - 1 do
    if Prng.Rng.int rng ~bound:8 = 0 then
      xs.(i) <- xs.(Prng.Rng.int rng ~bound:i)
  done;
  for _ = 1 to s.gaps do
    let i = Prng.Rng.int rng ~bound:s.len in
    xs.(i) <- xs.(i) +. (10.0 ** Prng.Rng.float_range rng ~lo:(-6.0) ~hi:0.0)
  done;
  if s.whole_us then Array.map to_whole_us xs else xs

let spec_arb =
  let gen =
    QCheck.Gen.(
      let* len = int_range 1 400 in
      let* whole_us = bool in
      let* bin_width =
        if whole_us then oneofl [ 0.25e-6; 0.5e-6; 1e-6; 2e-6; 4e-6 ]
        else float_range 0.25e-6 4e-6
      in
      let* reference =
        oneof [ float_range 0.0095 0.0105; float_range 0.1 1.0 ]
      in
      let reference = if whole_us then to_whole_us reference else reference in
      let* sigma = float_range 1e-6 2e-4 in
      let* gaps = int_range 0 3 in
      let+ seed = int_bound 1_000_000 in
      { len; bin_width; reference; sigma; gaps; whole_us; seed })
  in
  QCheck.make gen ~print:(fun s ->
      Printf.sprintf
        "len %d, bin_width %h, reference %h, sigma %h, gaps %d, whole_us %b, \
         seed %d"
        s.len s.bin_width s.reference s.sigma s.gaps s.whole_us s.seed)

let of_spec s xs =
  Stats.Entropy.of_sample ~bin_width:s.bin_width ~reference:s.reference xs

let prop_matches_dense_oracle =
  QCheck.Test.make ~name:"equals the dense histogram pass bit for bit"
    ~count:300 spec_arb (fun s ->
      let xs = window s in
      let expected =
        dense_oracle ~bin_width:s.bin_width ~reference:s.reference xs
      in
      same_bits expected (of_spec s xs))

let prop_mass_conserved =
  (* Counting every value twice leaves every mass c/n, so the sum, bit
     for bit; a value dropped or counted in two bins would move it. *)
  QCheck.Test.make ~name:"every observation lands in exactly one bin"
    ~count:200 spec_arb (fun s ->
      let xs = window s in
      same_bits (of_spec s xs) (of_spec s (Array.append xs xs)))

let prop_probabilities_normalized =
  (* n values in n distinct bins, spread over up to 10^6 bins: masses 1/n
     that sum to 1, so H = ln n. *)
  QCheck.Test.make ~name:"probabilities sum to 1" ~count:200
    QCheck.(array_of_size Gen.(int_range 1 200) (int_bound 1_000_000))
    (fun ks ->
      let ks = List.sort_uniq compare (Array.to_list ks) in
      let h = entropy (List.map (fun k -> float_of_int k +. 0.5) ks) in
      Float.abs (h -. log (float_of_int (List.length ks))) < 1e-9)

let prop_entropy_bounds =
  QCheck.Test.make ~name:"0 <= plugin entropy <= ln bins" ~count:200
    QCheck.(array_of_size Gen.(int_range 1 200) (float_bound_exclusive 10.0))
    (fun xs ->
      (* The anchored grid over [0, 10) has at most 16 bins. *)
      let e = Stats.Entropy.of_sample ~bin_width:(10.0 /. 16.0) ~reference:0.0 xs in
      e >= -1e-12 && e <= log 16.0 +. 1e-12)

let prop_of_sample_nonneg =
  QCheck.Test.make ~name:"sample entropy >= 0" ~count:200
    QCheck.(array_of_size Gen.(int_range 2 200) (float_bound_exclusive 10.0))
    (fun xs ->
      Stats.Entropy.of_sample ~bin_width:0.5 ~reference:0.0 xs >= -1e-12)

let suite =
  [
    Alcotest.test_case "uniform probabilities" `Quick test_uniform_probabilities;
    Alcotest.test_case "point mass" `Quick test_deterministic;
    Alcotest.test_case "binary entropy" `Quick test_binary;
    Alcotest.test_case "non-finite inputs raise" `Quick test_non_finite_raises;
    Alcotest.test_case "plugin on uniform histogram" `Quick test_histogram_plugin_uniform;
    Alcotest.test_case "normal differential formula" `Quick test_normal_differential_formula;
    Alcotest.test_case "estimator ~ Gaussian entropy" `Quick test_estimator_matches_gaussian;
    Alcotest.test_case "estimator monotone in sigma" `Quick test_estimator_monotone_in_sigma;
    Alcotest.test_case "grid anchoring" `Quick test_estimator_grid_anchoring;
    Alcotest.test_case "estimator invalid args" `Quick test_estimator_invalid;
    QCheck_alcotest.to_alcotest prop_of_sample_nonneg;
    QCheck_alcotest.to_alcotest prop_entropy_bounds;
    Alcotest.test_case "basic binning" `Quick test_basic_binning;
    Alcotest.test_case "boundary bin" `Quick test_boundary_goes_up;
    Alcotest.test_case "outlier clamping" `Quick test_clamping;
    Alcotest.test_case "probabilities sum" `Quick test_probabilities_sum;
    Alcotest.test_case "gap of 10^5 s" `Quick test_huge_span;
    Alcotest.test_case "dense oracle, both strategies" `Quick
      test_oracle_both_strategies;
    QCheck_alcotest.to_alcotest prop_matches_dense_oracle;
    QCheck_alcotest.to_alcotest prop_mass_conserved;
    QCheck_alcotest.to_alcotest prop_probabilities_normalized;
    Alcotest.test_case "grid invalid args" `Quick test_grid_invalid;
  ]
