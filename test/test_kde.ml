(* Gaussian KDE: normalization, consistency, log-pdf stability. *)

let close ?(tol = 1e-6) msg expected actual =
  if Float.abs (expected -. actual) > tol then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let gaussian_sample n seed =
  let rng = Prng.Rng.create ~seed in
  Array.init n (fun _ -> Prng.Sampler.normal rng ~mu:0.0 ~sigma:1.0)

let test_pdf_integrates_to_one () =
  let kde = Stats.Kde.fit (gaussian_sample 500 61) in
  let mass =
    Stats.Integrate.simpson (Stats.Kde.pdf kde) ~lo:(-10.0) ~hi:10.0
  in
  close ~tol:1e-4 "total mass 1" 1.0 mass

let test_pdf_positive () =
  let kde = Stats.Kde.fit [| 1.0; 2.0; 3.0 |] in
  List.iter
    (fun x -> Alcotest.(check bool) "pdf > 0" true (Stats.Kde.pdf kde x > 0.0))
    [ 0.0; 1.5; 3.0 ]

let test_single_point () =
  let kde = Stats.Kde.fit ~bandwidth:0.5 [| 2.0 |] in
  close "peak at the point"
    (Stats.Special.normal_pdf ~mu:2.0 ~sigma:0.5 2.0)
    (Stats.Kde.pdf kde 2.0)

let test_consistency_at_mode () =
  (* With many samples the KDE at 0 should approach phi(0) = 0.3989. *)
  let kde = Stats.Kde.fit (gaussian_sample 20_000 62) in
  close ~tol:0.03 "density at mode" 0.3989 (Stats.Kde.pdf kde 0.0)

let test_log_pdf_matches_pdf () =
  let kde = Stats.Kde.fit (gaussian_sample 200 63) in
  List.iter
    (fun x ->
      close ~tol:1e-9 "log pdf consistent" (log (Stats.Kde.pdf kde x))
        (Stats.Kde.log_pdf kde x))
    [ -1.0; 0.0; 0.7 ]

let test_log_pdf_deep_tail () =
  let kde = Stats.Kde.fit ~bandwidth:0.1 [| 0.0 |] in
  (* pdf underflows at x = 10 (z = 100); log_pdf must stay finite. *)
  Alcotest.(check (float 0.0)) "pdf underflows" 0.0 (Stats.Kde.pdf kde 10.0);
  Alcotest.(check bool) "log_pdf finite" true
    (Float.is_finite (Stats.Kde.log_pdf kde 10.0));
  Alcotest.(check bool) "log_pdf very negative" true
    (Stats.Kde.log_pdf kde 10.0 < -1000.0)

let test_known_answers () =
  (* Bit patterns recorded from the closure-based implementation: the
     loops must reproduce every operation in the same order, deep-tail
     underflow of [pdf] included. *)
  let kde = Stats.Kde.fit (gaussian_sample 300 65) in
  List.iter
    (fun (x, log_bits, pdf_bits) ->
      let check name bits v =
        if Int64.bits_of_float v <> bits then
          Alcotest.failf "%s at %h: got %h (0x%Lx), want 0x%Lx" name x v
            (Int64.bits_of_float v) bits
      in
      check "log_pdf" log_bits (Stats.Kde.log_pdf kde x);
      check "pdf" pdf_bits (Stats.Kde.pdf kde x))
    [
      (-4.0, 0xc0290f60986ef1f6L, 0x3ece5624471b54dcL);
      (-1.25, 0xbffedd6049b78648L, 0x3fc298c05f2fb79cL);
      (0.0, 0xbfec813008eddf48L, 0x3fda43015c2dffdfL);
      (0.3, 0xbfe9ef8c925b4cf8L, 0x3fdc74f87e35e540L);
      (1.7, 0xc0044c7fdd0dbebaL, 0x3fb43e49538151feL);
      (6.0, 0xc056e29eb783605fL, 0x37ae938adc8e24dfL);
      (40.0, 0xc0c49c7c424cb41bL, 0x0L);
    ]

let test_silverman_positive_on_constant_data () =
  let kde = Stats.Kde.fit (Array.make 50 3.0) in
  Alcotest.(check bool) "bandwidth > 0" true (Stats.Kde.bandwidth kde > 0.0);
  Alcotest.(check bool) "pdf finite" true
    (Float.is_finite (Stats.Kde.pdf kde 3.0))

let test_explicit_bandwidth () =
  let kde = Stats.Kde.fit ~bandwidth:0.7 [| 0.0; 1.0 |] in
  close "bandwidth recorded" 0.7 (Stats.Kde.bandwidth kde)

let test_invalid () =
  Alcotest.check_raises "empty" (Invalid_argument "Kde.fit: empty") (fun () ->
      ignore (Stats.Kde.fit [||]));
  Alcotest.check_raises "bad bandwidth"
    (Invalid_argument "Kde.fit: bandwidth <= 0") (fun () ->
      ignore (Stats.Kde.fit ~bandwidth:0.0 [| 1.0 |]))

let prop_pdf_nonneg =
  QCheck.Test.make ~name:"pdf >= 0 everywhere" ~count:100
    QCheck.(
      pair
        (array_of_size Gen.(int_range 1 30) (float_bound_exclusive 10.0))
        (float_bound_exclusive 20.0))
    (fun (xs, x) -> Stats.Kde.pdf (Stats.Kde.fit xs) x >= 0.0)

let suite =
  [
    Alcotest.test_case "pdf integrates to 1" `Quick test_pdf_integrates_to_one;
    Alcotest.test_case "pdf positive" `Quick test_pdf_positive;
    Alcotest.test_case "single point = kernel" `Quick test_single_point;
    Alcotest.test_case "consistency at mode" `Quick test_consistency_at_mode;
    Alcotest.test_case "log_pdf = log pdf" `Quick test_log_pdf_matches_pdf;
    Alcotest.test_case "log_pdf deep-tail stability" `Quick test_log_pdf_deep_tail;
    Alcotest.test_case "degenerate data bandwidth" `Quick test_silverman_positive_on_constant_data;
    Alcotest.test_case "explicit bandwidth" `Quick test_explicit_bandwidth;
    Alcotest.test_case "invalid args" `Quick test_invalid;
    Alcotest.test_case "log_pdf/pdf known answers (bits)" `Quick test_known_answers;
    QCheck_alcotest.to_alcotest prop_pdf_nonneg;
  ]
