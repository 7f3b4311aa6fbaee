(* Histogram: binning, clamping, probabilities, qcheck mass laws. *)

let close ?(tol = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > tol then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let test_basic_binning () =
  let h = Stats.Histogram.create ~lo:0.0 ~bin_width:1.0 ~bins:4 in
  List.iter (Stats.Histogram.add h) [ 0.5; 1.5; 1.7; 3.9 ];
  Alcotest.(check int) "bin 0" 1 (Stats.Histogram.bin_count h 0);
  Alcotest.(check int) "bin 1" 2 (Stats.Histogram.bin_count h 1);
  Alcotest.(check int) "bin 2" 0 (Stats.Histogram.bin_count h 2);
  Alcotest.(check int) "bin 3" 1 (Stats.Histogram.bin_count h 3);
  Alcotest.(check int) "total" 4 (Stats.Histogram.count h)

let test_boundary_goes_up () =
  let h = Stats.Histogram.create ~lo:0.0 ~bin_width:1.0 ~bins:3 in
  Stats.Histogram.add h 1.0;
  Alcotest.(check int) "boundary in upper bin" 1 (Stats.Histogram.bin_count h 1)

let test_clamping () =
  let h = Stats.Histogram.create ~lo:0.0 ~bin_width:1.0 ~bins:3 in
  Stats.Histogram.add h (-5.0);
  Stats.Histogram.add h 100.0;
  Alcotest.(check int) "low outlier clamped" 1 (Stats.Histogram.bin_count h 0);
  Alcotest.(check int) "high outlier clamped" 1 (Stats.Histogram.bin_count h 2)

let test_probabilities_sum () =
  let h = Stats.Histogram.create ~lo:0.0 ~bin_width:1.0 ~bins:8 in
  List.iter (Stats.Histogram.add h) [ 1.0; 2.0; 2.5; 3.0; 7.0 ];
  let ps = Stats.Histogram.probabilities h in
  close "sum = 1" 1.0 (Array.fold_left ( +. ) 0.0 ps)

let test_invalid_args () =
  Alcotest.check_raises "bad width"
    (Invalid_argument "Histogram.create: bin_width <= 0") (fun () ->
      ignore (Stats.Histogram.create ~lo:0.0 ~bin_width:0.0 ~bins:3));
  Alcotest.check_raises "bad bins" (Invalid_argument "Histogram.create: bins <= 0")
    (fun () -> ignore (Stats.Histogram.create ~lo:0.0 ~bin_width:1.0 ~bins:0));
  let h = Stats.Histogram.create ~lo:0.0 ~bin_width:1.0 ~bins:2 in
  Alcotest.check_raises "index range"
    (Invalid_argument "Histogram: bin index out of range") (fun () ->
      ignore (Stats.Histogram.bin_count h 2))

let prop_mass_conserved =
  QCheck.Test.make ~name:"every observation lands in exactly one bin" ~count:200
    QCheck.(array_of_size Gen.(int_range 1 100) (float_bound_exclusive 50.0))
    (fun xs ->
      let h = Stats.Histogram.create ~lo:0.0 ~bin_width:5.0 ~bins:10 in
      Array.iter (Stats.Histogram.add h) xs;
      let total = ref 0 in
      for i = 0 to 9 do
        total := !total + Stats.Histogram.bin_count h i
      done;
      !total = Array.length xs)

let prop_probabilities_normalized =
  QCheck.Test.make ~name:"probabilities sum to 1" ~count:200
    QCheck.(array_of_size Gen.(int_range 1 100) (float_bound_exclusive 50.0))
    (fun xs ->
      let h = Stats.Histogram.create ~lo:0.0 ~bin_width:(50.0 /. 16.0) ~bins:16 in
      Array.iter (Stats.Histogram.add h) xs;
      let s = Array.fold_left ( +. ) 0.0 (Stats.Histogram.probabilities h) in
      Float.abs (s -. 1.0) < 1e-9)

let suite =
  [
    Alcotest.test_case "basic binning" `Quick test_basic_binning;
    Alcotest.test_case "boundary bin" `Quick test_boundary_goes_up;
    Alcotest.test_case "outlier clamping" `Quick test_clamping;
    Alcotest.test_case "probabilities sum" `Quick test_probabilities_sum;
    Alcotest.test_case "invalid args" `Quick test_invalid_args;
    QCheck_alcotest.to_alcotest prop_mass_conserved;
    QCheck_alcotest.to_alcotest prop_probabilities_normalized;
  ]
