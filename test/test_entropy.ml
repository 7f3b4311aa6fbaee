(* Entropy estimators: exact discrete values, the paper's eq. 24/25
   estimator against the closed-form Gaussian entropy, and properties. *)

let close ?(tol = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > tol then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let test_uniform_probabilities () =
  close "H(uniform k=4) = ln 4" (log 4.0)
    (Stats.Entropy.of_probabilities (Array.make 4 0.25))

let test_deterministic () =
  close "H(point mass) = 0" 0.0
    (Stats.Entropy.of_probabilities [| 1.0; 0.0; 0.0 |])

let test_binary () =
  let p = 0.3 in
  close "binary entropy"
    (-.((p *. log p) +. ((1.0 -. p) *. log (1.0 -. p))))
    (Stats.Entropy.of_probabilities [| p; 1.0 -. p |])

let test_negative_raises () =
  Alcotest.check_raises "negative mass"
    (Invalid_argument "Entropy.of_probabilities: negative mass") (fun () ->
      ignore (Stats.Entropy.of_probabilities [| 0.5; -0.1 |]))

let test_histogram_plugin_uniform () =
  let h = Stats.Histogram.create ~lo:0.0 ~bin_width:1.0 ~bins:4 in
  List.iter (Stats.Histogram.add h) [ 0.5; 1.5; 2.5; 3.5 ];
  close "plugin = ln 4" (log 4.0) (Stats.Entropy.histogram_plugin h)

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

let prop_entropy_bounds =
  QCheck.Test.make ~name:"0 <= plugin entropy <= ln bins" ~count:200
    QCheck.(array_of_size Gen.(int_range 1 200) (float_bound_exclusive 10.0))
    (fun xs ->
      let h = Stats.Histogram.create ~lo:0.0 ~bin_width:(10.0 /. 16.0) ~bins:16 in
      Array.iter (Stats.Histogram.add h) xs;
      let e = Stats.Entropy.histogram_plugin h in
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
    Alcotest.test_case "negative mass raises" `Quick test_negative_raises;
    Alcotest.test_case "plugin on uniform histogram" `Quick test_histogram_plugin_uniform;
    Alcotest.test_case "normal differential formula" `Quick test_normal_differential_formula;
    Alcotest.test_case "estimator ~ Gaussian entropy" `Quick test_estimator_matches_gaussian;
    Alcotest.test_case "estimator monotone in sigma" `Quick test_estimator_monotone_in_sigma;
    Alcotest.test_case "grid anchoring" `Quick test_estimator_grid_anchoring;
    Alcotest.test_case "estimator invalid args" `Quick test_estimator_invalid;
    QCheck_alcotest.to_alcotest prop_of_sample_nonneg;
    QCheck_alcotest.to_alcotest prop_entropy_bounds;
  ]
