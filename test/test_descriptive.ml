(* Descriptive statistics: array helpers vs hand values, Welford
   accumulator vs two-pass results, merge law, and qcheck properties. *)

let close ?(tol = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > tol *. Float.max 1.0 (Float.abs expected)
  then Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let data = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |]

let test_mean () = close "mean" 5.0 (Stats.Descriptive.mean data)

let test_variance () =
  (* population var of this classic dataset is 4; sample var = 4 * 8/7 *)
  close "sample variance" (32.0 /. 7.0) (Stats.Descriptive.variance data)

let test_std () = close "std" (sqrt (32.0 /. 7.0)) (Stats.Descriptive.std data)

let test_minmax () =
  let len = Array.length data in
  close "min" 2.0 (Stats.Descriptive.minimum_in data ~pos:0 ~len);
  close "max" 9.0 (Stats.Descriptive.maximum_in data ~pos:0 ~len)

(* The median is the type-7 quantile at 0.5. *)
let test_median_even () =
  close "median even" 4.5 (Stats.Descriptive.quantile data 0.5)

let test_median_odd () =
  close "median odd" 3.0 (Stats.Descriptive.quantile [| 9.0; 1.0; 3.0 |] 0.5)

let test_quantile_endpoints () =
  close "q0 = min" 2.0 (Stats.Descriptive.quantile data 0.0);
  close "q1 = max" 9.0 (Stats.Descriptive.quantile data 1.0)

let test_quantile_interpolation () =
  (* type-7 quantile of [10,20,30,40] at 0.5 -> 25 *)
  close "interpolated" 25.0
    (Stats.Descriptive.quantile [| 40.0; 10.0; 30.0; 20.0 |] 0.5)

let test_quantile_does_not_mutate () =
  let xs = [| 3.0; 1.0; 2.0 |] in
  ignore (Stats.Descriptive.quantile xs 0.5);
  Alcotest.(check (array (float 0.0))) "input untouched" [| 3.0; 1.0; 2.0 |] xs

let test_empty_raises () =
  Alcotest.check_raises "mean []" (Invalid_argument "Descriptive.mean: empty")
    (fun () -> ignore (Stats.Descriptive.mean [||]));
  Alcotest.check_raises "variance [x]"
    (Invalid_argument "Descriptive.variance: need n >= 2") (fun () ->
      ignore (Stats.Descriptive.variance [| 1.0 |]))

let test_acc_matches_two_pass () =
  let rng = Prng.Rng.create ~seed:31 in
  let xs = Array.init 5000 (fun _ -> Prng.Sampler.normal rng ~mu:2.0 ~sigma:3.0) in
  let acc = Stats.Descriptive.Acc.create () in
  Array.iter (Stats.Descriptive.Acc.add acc) xs;
  close ~tol:1e-9 "mean agrees" (Stats.Descriptive.mean xs)
    (Stats.Descriptive.Acc.mean acc);
  close ~tol:1e-9 "variance agrees" (Stats.Descriptive.variance xs)
    (Stats.Descriptive.Acc.variance acc);
  Alcotest.(check int) "count" 5000 (Stats.Descriptive.Acc.count acc)

let test_acc_merge () =
  let rng = Prng.Rng.create ~seed:32 in
  let xs = Array.init 2000 (fun _ -> Prng.Sampler.exponential rng ~rate:1.5) in
  let a = Stats.Descriptive.Acc.create () and b = Stats.Descriptive.Acc.create () in
  let whole = Stats.Descriptive.Acc.create () in
  Array.iteri
    (fun i x ->
      Stats.Descriptive.Acc.add whole x;
      if i < 700 then Stats.Descriptive.Acc.add a x
      else Stats.Descriptive.Acc.add b x)
    xs;
  let merged = Stats.Descriptive.Acc.merge a b in
  close ~tol:1e-9 "merged mean" (Stats.Descriptive.Acc.mean whole)
    (Stats.Descriptive.Acc.mean merged);
  close ~tol:1e-9 "merged variance" (Stats.Descriptive.Acc.variance whole)
    (Stats.Descriptive.Acc.variance merged);
  close ~tol:1e-6 "merged skewness" (Stats.Descriptive.Acc.skewness whole)
    (Stats.Descriptive.Acc.skewness merged);
  close ~tol:1e-6 "merged kurtosis" (Stats.Descriptive.Acc.kurtosis_excess whole)
    (Stats.Descriptive.Acc.kurtosis_excess merged);
  close "merged min" (Stats.Descriptive.Acc.min whole)
    (Stats.Descriptive.Acc.min merged);
  close "merged max" (Stats.Descriptive.Acc.max whole)
    (Stats.Descriptive.Acc.max merged)

let test_acc_merge_empty () =
  let a = Stats.Descriptive.Acc.create () in
  Stats.Descriptive.Acc.add a 5.0;
  let e = Stats.Descriptive.Acc.create () in
  let m = Stats.Descriptive.Acc.merge a e in
  Alcotest.(check int) "count preserved" 1 (Stats.Descriptive.Acc.count m);
  close "mean preserved" 5.0 (Stats.Descriptive.Acc.mean m)

let test_acc_empty_defaults () =
  let acc = Stats.Descriptive.Acc.create () in
  close "empty mean 0" 0.0 (Stats.Descriptive.Acc.mean acc);
  close "empty variance 0" 0.0 (Stats.Descriptive.Acc.variance acc);
  Alcotest.check_raises "empty min raises"
    (Invalid_argument "Descriptive.Acc.min: empty") (fun () ->
      ignore (Stats.Descriptive.Acc.min acc))

let test_acc_skewness_sign () =
  (* Exponential data: positive skew (theory: 2). *)
  let rng = Prng.Rng.create ~seed:33 in
  let acc = Stats.Descriptive.Acc.create () in
  for _ = 1 to 50_000 do
    Stats.Descriptive.Acc.add acc (Prng.Sampler.exponential rng ~rate:1.0)
  done;
  let s = Stats.Descriptive.Acc.skewness acc in
  Alcotest.(check bool) "skewness ~ 2" true (s > 1.6 && s < 2.4)

(* qcheck properties *)
let prop_variance_nonneg =
  QCheck.Test.make ~name:"variance >= 0" ~count:200
    QCheck.(array_of_size Gen.(int_range 2 40) (float_bound_exclusive 1000.0))
    (fun xs -> Stats.Descriptive.variance xs >= 0.0)

let prop_mean_between_min_max =
  QCheck.Test.make ~name:"min <= mean <= max" ~count:200
    QCheck.(array_of_size Gen.(int_range 1 40) (float_bound_exclusive 1000.0))
    (fun xs ->
      let m = Stats.Descriptive.mean xs in
      let len = Array.length xs in
      m >= Stats.Descriptive.minimum_in xs ~pos:0 ~len -. 1e-9
      && m <= Stats.Descriptive.maximum_in xs ~pos:0 ~len +. 1e-9)

let prop_shift_invariance_of_variance =
  QCheck.Test.make ~name:"variance shift-invariant" ~count:200
    QCheck.(array_of_size Gen.(int_range 2 40) (float_bound_exclusive 100.0))
    (fun xs ->
      let shifted = Array.map (fun x -> x +. 42.0) xs in
      Float.abs (Stats.Descriptive.variance xs -. Stats.Descriptive.variance shifted)
      < 1e-6 *. (1.0 +. Stats.Descriptive.variance xs))

let prop_quantile_monotone =
  QCheck.Test.make ~name:"quantile monotone in p" ~count:200
    QCheck.(
      pair
        (array_of_size Gen.(int_range 1 40) (float_bound_exclusive 100.0))
        (pair (float_bound_inclusive 1.0) (float_bound_inclusive 1.0)))
    (fun (xs, (p1, p2)) ->
      let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
      Stats.Descriptive.quantile xs lo <= Stats.Descriptive.quantile xs hi +. 1e-9)

let prop_acc_matches_arrays =
  QCheck.Test.make ~name:"Acc.mean = array mean" ~count:200
    QCheck.(array_of_size Gen.(int_range 1 60) (float_bound_exclusive 50.0))
    (fun xs ->
      let acc = Stats.Descriptive.Acc.create () in
      Array.iter (Stats.Descriptive.Acc.add acc) xs;
      Float.abs (Stats.Descriptive.Acc.mean acc -. Stats.Descriptive.mean xs)
      < 1e-9)

let suite =
  [
    Alcotest.test_case "mean" `Quick test_mean;
    Alcotest.test_case "variance" `Quick test_variance;
    Alcotest.test_case "std" `Quick test_std;
    Alcotest.test_case "min/max" `Quick test_minmax;
    Alcotest.test_case "median even" `Quick test_median_even;
    Alcotest.test_case "median odd" `Quick test_median_odd;
    Alcotest.test_case "quantile endpoints" `Quick test_quantile_endpoints;
    Alcotest.test_case "quantile interpolation" `Quick test_quantile_interpolation;
    Alcotest.test_case "quantile pure" `Quick test_quantile_does_not_mutate;
    Alcotest.test_case "empty input raises" `Quick test_empty_raises;
    Alcotest.test_case "Acc matches two-pass" `Quick test_acc_matches_two_pass;
    Alcotest.test_case "Acc merge law" `Quick test_acc_merge;
    Alcotest.test_case "Acc merge with empty" `Quick test_acc_merge_empty;
    Alcotest.test_case "Acc empty defaults" `Quick test_acc_empty_defaults;
    Alcotest.test_case "Acc skewness sign" `Quick test_acc_skewness_sign;
    QCheck_alcotest.to_alcotest prop_variance_nonneg;
    QCheck_alcotest.to_alcotest prop_mean_between_min_max;
    QCheck_alcotest.to_alcotest prop_shift_invariance_of_variance;
    QCheck_alcotest.to_alcotest prop_quantile_monotone;
    QCheck_alcotest.to_alcotest prop_acc_matches_arrays;
  ]
