(* Determinism and robustness tests for the Exec domain pool: the whole
   point of the execution layer is that worker count is a pure
   performance knob — every observable result must be bit-identical to
   the sequential run. *)

(* Run [f] with the global pool set to [jobs] workers, restoring the
   single-worker default afterwards so tests stay independent. *)
let with_jobs jobs f =
  Exec.Pool.set_default_jobs jobs;
  Fun.protect ~finally:(fun () -> Exec.Pool.set_default_jobs 1) f

(* --- (a) sequential path: parallel_map at jobs=1 is List.map --- *)

let test_sequential_equals_list_map () =
  let xs = List.init 200 (fun i -> i) in
  let f x = (x * x) + 7 in
  with_jobs 1 (fun () ->
      Alcotest.(check (list int))
        "jobs=1 equals List.map" (List.map f xs)
        (Exec.Pool.parallel_map f xs));
  Alcotest.(check int) "no spare tokens at jobs=1" 0 (Exec.Pool.spare_tokens ())

let test_combinators_match_sequential () =
  (* Variable per-task work so a racy implementation would reorder. *)
  let work i =
    let rng = Prng.Rng.create ~seed:(Prng.Rng.mix_seed 77 i) in
    let acc = ref 0.0 in
    for _ = 1 to 1000 + (997 * i mod 5000) do
      acc := !acc +. Prng.Rng.float rng
    done;
    (i, !acc)
  in
  let expected = Array.init 32 work in
  List.iter
    (fun jobs ->
      let got =
        with_jobs jobs (fun () -> Exec.Pool.parallel_init 32 work)
      in
      Alcotest.(check bool)
        (Printf.sprintf "parallel_init identical at jobs=%d" jobs)
        true (expected = got))
    [ 1; 2; 8 ]

(* --- (b) a real scenario slice is bit-identical at any worker count --- *)

let fig4b_output jobs =
  with_jobs jobs (fun () ->
      let buf = Buffer.create 4096 in
      let fmt = Format.formatter_of_buffer buf in
      let t =
        Scenarios.Fig4b.run ~scale:0.05 ~seed:9_901
          ~sample_sizes:[ 10; 20; 50 ] fmt
      in
      Format.pp_print_flush fmt ();
      (Buffer.contents buf, t.Scenarios.Fig4b.r_hat))

let test_fig4b_bit_identical_across_jobs () =
  let out1, r1 = fig4b_output 1 in
  let out2, r2 = fig4b_output 2 in
  let out8, r8 = fig4b_output 8 in
  Alcotest.(check string) "jobs=2 table identical to jobs=1" out1 out2;
  Alcotest.(check string) "jobs=8 table identical to jobs=1" out1 out8;
  Alcotest.(check (float 0.0)) "r_hat identical (jobs=2)" r1 r2;
  Alcotest.(check (float 0.0)) "r_hat identical (jobs=8)" r1 r8;
  Alcotest.(check bool) "output non-empty" true (String.length out1 > 0)

(* --- (b') arena reuse is bit-identical to fresh simulators --- *)

let test_arena_reuse_bit_identical () =
  (* System.run recycles a per-domain arena (simulator, tap vectors,
     gateway buffers); a run on brand-new state must match it, at any
     worker count.  Prime the arena with an unrelated differently-shaped
     run first so reuse starts from dirty, already-grown storage; the
     fresh run comes from a newly spawned domain, whose [Domain.DLS]
     arena is new. *)
  let cfg =
    { Scenarios.System.default_config with Scenarios.System.seed = 31_337 }
  in
  ignore
    (Scenarios.System.run
       { cfg with Scenarios.System.seed = 1; payload_rate_pps = 55.0 }
       ~piats:120
      : Scenarios.System.result);
  let reused = Scenarios.System.run cfg ~piats:400 in
  let fresh =
    Domain.join (Domain.spawn (fun () -> Scenarios.System.run cfg ~piats:400))
  in
  Alcotest.(check bool) "piats bit-identical" true
    (reused.Scenarios.System.piats = fresh.Scenarios.System.piats);
  Alcotest.(check bool) "timestamps bit-identical" true
    (reused.Scenarios.System.timestamps = fresh.Scenarios.System.timestamps);
  Alcotest.(check (float 0.0)) "overhead identical"
    fresh.Scenarios.System.overhead reused.Scenarios.System.overhead;
  Alcotest.(check int) "delivered identical"
    fresh.Scenarios.System.payload_delivered
    reused.Scenarios.System.payload_delivered;
  (* And the full fig4b pipeline stays bit-identical across jobs while
     every worker recycles its own arena (fig4b_output already runs with
     the reusing default). *)
  let out1, _ = fig4b_output 1 in
  let out2, _ = fig4b_output 2 in
  let out8, _ = fig4b_output 8 in
  Alcotest.(check string) "fig4b reused-arena jobs=2 = jobs=1" out1 out2;
  Alcotest.(check string) "fig4b reused-arena jobs=8 = jobs=1" out1 out8

(* --- (c) exception handling: pool survives a raising task --- *)

let test_reraises_first_failure () =
  with_jobs 4 (fun () ->
      let before = Exec.Pool.spare_tokens () in
      Alcotest.(check int) "tokens available" 3 before;
      (match
         Exec.Pool.parallel_map
           (fun i -> if i mod 5 = 3 then failwith (Printf.sprintf "boom %d" i) else i)
           (List.init 20 (fun i -> i))
       with
      | _ -> Alcotest.fail "expected Failure"
      | exception Failure msg ->
          (* Lowest-index failure wins, independent of scheduling. *)
          Alcotest.(check string) "deterministic first failure" "boom 3" msg);
      Alcotest.(check int) "tokens restored after failure" before
        (Exec.Pool.spare_tokens ());
      (* The pool still works after a failed fan-out. *)
      Alcotest.(check (list int))
        "pool usable after failure" [ 0; 2; 4 ]
        (Exec.Pool.parallel_map (fun x -> 2 * x) [ 0; 1; 2 ]))

let test_both_propagates_and_orders () =
  with_jobs 2 (fun () ->
      let a, b = Exec.Pool.both (fun () -> 41 + 1) (fun () -> "ok") in
      Alcotest.(check int) "both: left" 42 a;
      Alcotest.(check string) "both: right" "ok" b;
      match
        Exec.Pool.both
          (fun () -> failwith "left")
          (fun () -> failwith "right")
      with
      | _ -> Alcotest.fail "expected Failure"
      | exception Failure msg ->
          Alcotest.(check string) "left (lower index) wins" "left" msg)

(* --- (d) split-seed derivation is order- and schedule-independent --- *)

let test_seed_derivation_order_independent () =
  let root = 424_242 in
  let forward = List.init 64 (fun i -> Prng.Rng.mix_seed root i) in
  let backward =
    List.rev (List.init 64 (fun i -> Prng.Rng.mix_seed root (63 - i)))
  in
  Alcotest.(check (list int)) "derivation is a pure function of (root, index)"
    forward backward;
  (* Derived under parallel scheduling: still the same seeds. *)
  let parallel =
    with_jobs 8 (fun () ->
        Array.to_list
          (Exec.Pool.parallel_init 64 (fun i -> Prng.Rng.mix_seed root i)))
  in
  Alcotest.(check (list int)) "identical when derived by a pool" forward parallel;
  let distinct = List.sort_uniq compare forward in
  Alcotest.(check int) "64 distinct seeds" 64 (List.length distinct);
  List.iter
    (fun s -> Alcotest.(check bool) "seed non-negative" true (s >= 0))
    forward;
  (match forward with
  | s0 :: _ ->
      Alcotest.(check bool) "different roots give different seeds" true
        (Prng.Rng.mix_seed (root + 1) 0 <> s0)
  | [] -> assert false)

(* --- repeated identical collections recompute identically --- *)

let test_collect_pair_repeatable () =
  let base = { Scenarios.System.default_config with Scenarios.System.seed = 5_551 } in
  let t1 = Scenarios.Workload.collect_pair ~base ~piats:600 in
  let t2 = Scenarios.Workload.collect_pair ~base ~piats:600 in
  Alcotest.(check (float 0.0)) "identical r_hat" t1.Scenarios.Workload.r_hat
    t2.Scenarios.Workload.r_hat;
  Alcotest.(check bool) "identical low piats" true
    (t1.Scenarios.Workload.low.Scenarios.System.piats
    = t2.Scenarios.Workload.low.Scenarios.System.piats)

let test_set_default_jobs_validates () =
  Alcotest.check_raises "jobs < 1 rejected"
    (Invalid_argument "Exec.Pool.set_default_jobs: jobs < 1") (fun () ->
      Exec.Pool.set_default_jobs 0)

let suite =
  [
    Alcotest.test_case "jobs=1 equals List.map" `Quick
      test_sequential_equals_list_map;
    Alcotest.test_case "combinators match sequential at any jobs" `Quick
      test_combinators_match_sequential;
    Alcotest.test_case "fig4b bit-identical at jobs 1/2/8" `Slow
      test_fig4b_bit_identical_across_jobs;
    Alcotest.test_case "arena reuse bit-identical to fresh" `Slow
      test_arena_reuse_bit_identical;
    Alcotest.test_case "re-raises lowest-index failure; pool survives" `Quick
      test_reraises_first_failure;
    Alcotest.test_case "both: results and error ordering" `Quick
      test_both_propagates_and_orders;
    Alcotest.test_case "seed derivation order-independent" `Quick
      test_seed_derivation_order_independent;
    Alcotest.test_case "collect_pair recomputes identically" `Slow
      test_collect_pair_repeatable;
    Alcotest.test_case "set_default_jobs validates" `Quick
      test_set_default_jobs_validates;
  ]
