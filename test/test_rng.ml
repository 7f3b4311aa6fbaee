(* Unit and property tests for the PRNG core. *)

let check_float = Alcotest.(check (float 1e-9))

let test_determinism () =
  let a = Prng.Rng.create ~seed:123 and b = Prng.Rng.create ~seed:123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.Rng.bits64 a) (Prng.Rng.bits64 b)
  done

let test_seed_sensitivity () =
  let a = Prng.Rng.create ~seed:1 and b = Prng.Rng.create ~seed:2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.Rng.bits64 a = Prng.Rng.bits64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_copy_independent () =
  let a = Prng.Rng.create ~seed:7 in
  let b = Prng.Rng.copy a in
  let xa = Prng.Rng.bits64 a in
  let xb = Prng.Rng.bits64 b in
  Alcotest.(check int64) "copy continues identically" xa xb;
  (* One extra draw on [a] must leave [b] where it was: from then on [b]
     replays [a]'s stream exactly one draw behind. *)
  let prev = ref (Prng.Rng.bits64 a) in
  for _ = 1 to 16 do
    let xa = Prng.Rng.bits64 a in
    Alcotest.(check int64) "copy replays one draw behind" !prev
      (Prng.Rng.bits64 b);
    prev := xa
  done

(* Known-answer vectors.  Every recorded figure digest rests on these
   exact streams, so a change to the generator's state layout or step
   must reproduce them bit for bit. *)

let check_bits64 name expected rng =
  List.iteri
    (fun i x ->
      Alcotest.(check int64) (Printf.sprintf "%s draw %d" name i) x
        (Prng.Rng.bits64 rng))
    expected

let check_float_bits name expected draw =
  List.iteri
    (fun i x ->
      let y = draw () in
      if Int64.bits_of_float x <> Int64.bits_of_float y then
        Alcotest.failf "%s draw %d: expected %h, got %h" name i x y)
    expected

let test_known_answer_bits64 () =
  check_bits64 "create ~seed:1"
    [
      0xcfc5d07f6f03c29bL; 0xbf424132963fe08dL; 0x19a37d5757aaf520L;
      0xbf08119f05cd56d6L; 0x2f47184b86186fa4L; 0x97299fcae7202345L;
      0xfca3c79508f41507L; 0x85fea5c90363f221L;
    ]
    (Prng.Rng.create ~seed:1)

let test_known_answer_split () =
  let parent = Prng.Rng.create ~seed:1 in
  let child = Prng.Rng.split parent in
  check_bits64 "split child"
    [
      0x25faf2f0b1e9fa8fL; 0x16d8b03d2788bbceL; 0xe022c87d81f0daffL;
      0xea60241ba246e408L; 0x5845cd0851d7acccL; 0x850997acdc189ec8L;
      0x2bb28bff5ff16d1cL; 0xbfa05fa2acfcdcf0L;
    ]
    child;
  (* The split consumed exactly the parent's first draw. *)
  check_bits64 "parent after split"
    [ 0xbf424132963fe08dL; 0x19a37d5757aaf520L ]
    parent

let test_known_answer_floats () =
  let rng = Prng.Rng.create ~seed:2 in
  check_float_bits "float"
    [
      0x1.87cceb096b89fp-1; 0x1.1306fd873c81ep-1; 0x1.4d7616530f592p-1;
      0x1.2cc797ef74842p-2;
    ]
    (fun () -> Prng.Rng.float rng);
  check_float_bits "float_pos"
    [
      0x1.f6b674adc268p-2; 0x1.8b276183980c6p-1; 0x1.59550b84981dp-2;
      0x1.7b79fc3c1b7bbp-1;
    ]
    (fun () -> Prng.Rng.float_pos rng);
  Alcotest.(check (list int))
    "int ~bound:10"
    [ 4; 9; 9; 3; 0; 2; 4; 0; 8; 4; 8; 9; 3; 5; 6; 6 ]
    (List.init 16 (fun _ -> Prng.Rng.int rng ~bound:10));
  let rng = Prng.Rng.create ~seed:4 in
  check_float_bits "float_range [-1, 1)"
    [
      0x1.6fc3b9a4b54d8p-2; 0x1.b2e50dc980938p-3; -0x1.fd627413a9648p-2;
      0x1.ce03ecc02cc4p-2;
    ]
    (fun () -> Prng.Rng.float_range rng ~lo:(-1.0) ~hi:1.0)

let test_float_pos_fill () =
  (* The batched draw loop matches [float_pos] draw for draw and leaves
     the generator where the scalar calls would. *)
  let a = Prng.Rng.create ~seed:5 and b = Prng.Rng.create ~seed:5 in
  let buf = Float.Array.make 300 (-1.0) in
  Prng.Rng.float_pos_fill a buf ~n:257;
  check_float_bits "float_pos_fill"
    (List.init 257 (Float.Array.get buf))
    (fun () -> Prng.Rng.float_pos b);
  Alcotest.(check (float 0.0)) "tail untouched" (-1.0) (Float.Array.get buf 257);
  Alcotest.(check int64) "same stream position" (Prng.Rng.bits64 b)
    (Prng.Rng.bits64 a);
  Alcotest.check_raises "n > length"
    (Invalid_argument "Rng.float_pos_fill: n out of [0, length buf]")
    (fun () -> Prng.Rng.float_pos_fill a buf ~n:301)

let test_split_independence () =
  let parent = Prng.Rng.create ~seed:99 in
  let child = Prng.Rng.split parent in
  (* Child and parent streams should not coincide. *)
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.Rng.bits64 parent = Prng.Rng.bits64 child then incr same
  done;
  Alcotest.(check bool) "split streams differ" true (!same < 4)

let test_float_range_bounds () =
  let rng = Prng.Rng.create ~seed:5 in
  for _ = 1 to 10_000 do
    let x = Prng.Rng.float rng in
    Alcotest.(check bool) "in [0,1)" true (x >= 0.0 && x < 1.0)
  done

let test_float_pos_never_zero () =
  let rng = Prng.Rng.create ~seed:6 in
  for _ = 1 to 10_000 do
    Alcotest.(check bool) "positive" true (Prng.Rng.float_pos rng > 0.0)
  done

let test_float_mean () =
  let rng = Prng.Rng.create ~seed:8 in
  let n = 100_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Prng.Rng.float rng
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 0.5" true (Float.abs (mean -. 0.5) < 0.01)

let test_int_bounds_and_coverage () =
  let rng = Prng.Rng.create ~seed:9 in
  let seen = Array.make 10 false in
  for _ = 1 to 10_000 do
    let k = Prng.Rng.int rng ~bound:10 in
    Alcotest.(check bool) "in range" true (k >= 0 && k < 10);
    seen.(k) <- true
  done;
  Alcotest.(check bool) "all values hit" true (Array.for_all Fun.id seen)

let test_int_uniformity () =
  let rng = Prng.Rng.create ~seed:10 in
  let counts = Array.make 8 0 in
  let n = 80_000 in
  for _ = 1 to n do
    let k = Prng.Rng.int rng ~bound:8 in
    counts.(k) <- counts.(k) + 1
  done;
  let expected = Array.make 8 (float_of_int n /. 8.0) in
  let result = Stats.Hypothesis.chi_square_gof ~observed:counts ~expected in
  Alcotest.(check bool) "uniform (chi2 p > 0.001)" true
    (result.Stats.Hypothesis.p_value > 0.001)

let test_int_invalid () =
  let rng = Prng.Rng.create ~seed:11 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Prng.Rng.int rng ~bound:0))

let test_float_range () =
  let rng = Prng.Rng.create ~seed:13 in
  for _ = 1 to 1000 do
    let x = Prng.Rng.float_range rng ~lo:(-3.0) ~hi:5.5 in
    Alcotest.(check bool) "in [lo,hi)" true (x >= -3.0 && x < 5.5)
  done

let test_bits64_distribution () =
  (* Bit-balance smoke test: each of the 64 bits should be ~50% set. *)
  let rng = Prng.Rng.create ~seed:14 in
  let counts = Array.make 64 0 in
  let n = 20_000 in
  for _ = 1 to n do
    let v = Prng.Rng.bits64 rng in
    for b = 0 to 63 do
      if Int64.logand (Int64.shift_right_logical v b) 1L = 1L then
        counts.(b) <- counts.(b) + 1
    done
  done;
  Array.iteri
    (fun b c ->
      let frac = float_of_int c /. float_of_int n in
      if Float.abs (frac -. 0.5) >= 0.02 then
        Alcotest.failf "bit %d biased: %.3f" b frac)
    counts

let () = ignore check_float

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
    Alcotest.test_case "copy is independent clone" `Quick test_copy_independent;
    Alcotest.test_case "split independence" `Quick test_split_independence;
    Alcotest.test_case "float in [0,1)" `Quick test_float_range_bounds;
    Alcotest.test_case "float_pos > 0" `Quick test_float_pos_never_zero;
    Alcotest.test_case "float mean ~ 0.5" `Quick test_float_mean;
    Alcotest.test_case "int bounds and coverage" `Quick test_int_bounds_and_coverage;
    Alcotest.test_case "int uniformity (chi2)" `Quick test_int_uniformity;
    Alcotest.test_case "int rejects bound<=0" `Quick test_int_invalid;
    Alcotest.test_case "float_range bounds" `Quick test_float_range;
    Alcotest.test_case "bit balance" `Quick test_bits64_distribution;
    Alcotest.test_case "known answer: bits64" `Quick test_known_answer_bits64;
    Alcotest.test_case "known answer: split" `Quick test_known_answer_split;
    Alcotest.test_case "known answer: float/float_pos/int/float_range" `Quick
      test_known_answer_floats;
    Alcotest.test_case "float_pos_fill = scalar float_pos" `Quick
      test_float_pos_fill;
  ]
