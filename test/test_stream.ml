(* Streaming windowed statistics and intra-run sharding: streaming-vs-batch
   equivalence at 1e-9, Wilson-CI early-stop determinism, and bit-identity
   of sharded collection at any worker count — including a checkpointed
   figure run killed mid-sweep and resumed at a different --jobs. *)

module Stream = Stats.Stream

let close ?(tol = 1e-9) name expected actual =
  let scale = Float.max 1.0 (Float.abs expected) in
  if Float.abs (expected -. actual) > tol *. scale then
    Alcotest.failf "%s: expected %.17g, got %.17g" name expected actual

let trace ~n ~seed =
  let rng = Prng.Rng.create ~seed in
  Array.init n (fun _ -> Prng.Sampler.normal rng ~mu:0.01 ~sigma:3e-6)

let bin_width = Adversary.Feature.default_entropy_bin_width
let reference = 0.01

(* --- Moments: forward, inverse, merge vs the batch estimators --- *)

let test_moments_matches_descriptive () =
  let xs = trace ~n:777 ~seed:11 in
  let m = Stream.Moments.create () in
  Array.iter (Stream.Moments.add m) xs;
  Alcotest.(check int) "count" 777 (Stream.Moments.count m);
  close "mean" (Stats.Descriptive.mean xs) (Stream.Moments.mean m);
  close "variance" (Stats.Descriptive.variance xs) (Stream.Moments.variance m);
  close "std" (Stats.Descriptive.std xs) (Stream.Moments.std m)

let test_moments_remove () =
  (* Add 300, remove the first 100: aggregates must match a fresh pass
     over the surviving suffix. *)
  let xs = trace ~n:300 ~seed:12 in
  let m = Stream.Moments.create () in
  Array.iter (Stream.Moments.add m) xs;
  for i = 0 to 99 do
    Stream.Moments.remove m xs.(i)
  done;
  let tail = Array.sub xs 100 200 in
  Alcotest.(check int) "count after removal" 200 (Stream.Moments.count m);
  close "mean after removal" (Stats.Descriptive.mean tail)
    (Stream.Moments.mean m);
  close "variance after removal"
    (Stats.Descriptive.variance tail)
    (Stream.Moments.variance m);
  let empty = Stream.Moments.create () in
  Alcotest.check_raises "remove from empty raises"
    (Invalid_argument "Stream.Moments.remove: empty") (fun () ->
      Stream.Moments.remove empty 1.0)

let test_moments_merge () =
  let xs = trace ~n:500 ~seed:13 in
  let whole = Stream.Moments.create () in
  Array.iter (Stream.Moments.add whole) xs;
  (* Split into uneven shards, merge in order: same aggregate. *)
  let parts = [ (0, 123); (123, 77); (200, 300) ] in
  let merged =
    List.fold_left
      (fun acc (pos, len) ->
        let m = Stream.Moments.create () in
        for i = pos to pos + len - 1 do
          Stream.Moments.add m xs.(i)
        done;
        Stream.Moments.merge acc m)
      (Stream.Moments.create ()) parts
  in
  Alcotest.(check int) "merged count" (Stream.Moments.count whole)
    (Stream.Moments.count merged);
  close "merged mean" (Stream.Moments.mean whole) (Stream.Moments.mean merged);
  close "merged variance" (Stream.Moments.variance whole)
    (Stream.Moments.variance merged)

(* --- Hist: incremental entropy vs Entropy.of_sample --- *)

let test_hist_matches_entropy () =
  let xs = trace ~n:400 ~seed:14 in
  let h = Stream.Hist.create ~bin_width ~reference () in
  Array.iter (Stream.Hist.add h) xs;
  close "entropy after adds"
    (Stats.Entropy.of_sample ~bin_width ~reference xs)
    (Stream.Hist.entropy h);
  (* Evict a prefix: entropy must equal a fresh pass over the suffix. *)
  for i = 0 to 149 do
    Stream.Hist.remove h xs.(i)
  done;
  close "entropy after removals"
    (Stats.Entropy.of_sample ~bin_width ~reference (Array.sub xs 150 250))
    (Stream.Hist.entropy h)

(* --- Window: every slide position vs the batch extractors --- *)

let test_window_matches_batch () =
  let xs = trace ~n:600 ~seed:15 in
  let sample_size = 64 and stride = 7 in
  let w = Stream.Window.create ~capacity:sample_size ~bin_width ~reference () in
  let checked = ref 0 in
  Array.iteri
    (fun i x ->
      Stream.Window.push w x;
      if
        Stream.Window.is_full w
        && (i + 1 - sample_size) mod stride = 0
      then begin
        let pos = i + 1 - sample_size in
        incr checked;
        close
          (Printf.sprintf "mean@%d" pos)
          (Stats.Descriptive.mean_in xs ~pos ~len:sample_size)
          (Stream.Window.mean w);
        close
          (Printf.sprintf "variance@%d" pos)
          (Stats.Descriptive.variance_in xs ~pos ~len:sample_size)
          (Stream.Window.variance w);
        close
          (Printf.sprintf "entropy@%d" pos)
          (Stats.Entropy.of_sample_in ~bin_width ~reference xs ~pos
             ~len:sample_size)
          (Stream.Window.entropy w)
      end)
    xs;
  Alcotest.(check int) "every slide position checked"
    (Stream.sliding_count ~length:600 ~sample_size ~stride)
    !checked

let test_sliding_count () =
  Alcotest.(check int) "exact fit"
    1
    (Stream.sliding_count ~length:64 ~sample_size:64 ~stride:7);
  Alcotest.(check int) "too short" 0
    (Stream.sliding_count ~length:63 ~sample_size:64 ~stride:7);
  Alcotest.(check int) "disjoint slicing"
    5
    (Stream.sliding_count ~length:549 ~sample_size:100 ~stride:100)

(* --- Dataset.sliding_features vs the per-window batch extraction --- *)

let test_sliding_features_matches_batch () =
  let xs = trace ~n:512 ~seed:16 in
  let sample_size = 100 and stride = 25 in
  let w =
    Adversary.Dataset.sliding_features ~reference ~sample_size ~stride
      ~entropy_bin_widths:[ bin_width ] xs
  in
  let expected_count =
    Stream.sliding_count ~length:512 ~sample_size ~stride
  in
  Alcotest.(check int) "window count" expected_count w.Adversary.Dataset.w_count;
  for k = 0 to expected_count - 1 do
    let pos = k * stride in
    close
      (Printf.sprintf "w_means.(%d)" k)
      (Stats.Descriptive.mean_in xs ~pos ~len:sample_size)
      w.Adversary.Dataset.w_means.(k);
    close
      (Printf.sprintf "w_variances.(%d)" k)
      (Stats.Descriptive.variance_in xs ~pos ~len:sample_size)
      w.Adversary.Dataset.w_variances.(k);
    let entropies = List.assoc bin_width w.Adversary.Dataset.w_entropies in
    close
      (Printf.sprintf "w_entropies.(%d)" k)
      (Stats.Entropy.of_sample_in ~bin_width ~reference xs ~pos
         ~len:sample_size)
      entropies.(k)
  done;
  (* stride = sample_size degenerates to the classic disjoint slicing. *)
  let disjoint =
    Adversary.Dataset.sliding_features ~reference ~sample_size
      ~stride:sample_size ~entropy_bin_widths:[] xs
  in
  let batch =
    Adversary.Dataset.features_of_trace Adversary.Feature.Sample_variance
      ~reference ~sample_size xs
  in
  Alcotest.(check int) "disjoint count" (Array.length batch)
    disjoint.Adversary.Dataset.w_count;
  Array.iteri
    (fun k v -> close (Printf.sprintf "disjoint var %d" k) v
        disjoint.Adversary.Dataset.w_variances.(k))
    batch

(* --- Workload.collect_windowed: determinism and early stop --- *)

let cfg ~seed =
  { Scenarios.System.default_config with Scenarios.System.seed;
    warmup_piats = 20 }

let features = Adversary.Feature.standard_set

let observable (pair, scores) =
  ( pair.Scenarios.Workload.low_windows,
    pair.Scenarios.Workload.high_windows,
    pair.Scenarios.Workload.piat_var_low,
    pair.Scenarios.Workload.piat_var_high,
    pair.Scenarios.Workload.ratio_hat,
    pair.Scenarios.Workload.shards_run,
    pair.Scenarios.Workload.stopped_early,
    scores )

let collect ~jobs ~half_width =
  Exec.Pool.with_jobs jobs (fun () ->
      let plan =
        Scenarios.Workload.window_plan ~sample_size:100 ~windows_per_shard:4
          ~min_windows:4 ?half_width ~max_windows:12 ()
      in
      Scenarios.Workload.collect_windowed
        ~base:(cfg ~seed:31) ~plan ~features)

let test_collect_windowed_jobs_identity () =
  let full = collect ~jobs:1 ~half_width:None in
  let pair, _ = full in
  Alcotest.(check int) "runs to the window cap" 3
    pair.Scenarios.Workload.shards_run;
  Alcotest.(check bool) "no early stop without a target" false
    pair.Scenarios.Workload.stopped_early;
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d bit-identical" jobs)
        true
        (observable (collect ~jobs ~half_width:None) = observable full))
    [ 2; 8 ]

let test_collect_windowed_early_stop () =
  (* A half-width of 0.49 is satisfiable at the very first scoring, so
     the loop must stop after the minimum round. *)
  let stopped = collect ~jobs:1 ~half_width:(Some 0.49) in
  let pair, scores = stopped in
  Alcotest.(check int) "stopped after the first round" 1
    pair.Scenarios.Workload.shards_run;
  Alcotest.(check bool) "flagged as early" true
    pair.Scenarios.Workload.stopped_early;
  Alcotest.(check int) "one score per feature" (List.length features)
    (List.length scores);
  (* The stopping decision is data-driven, hence reproducible at any
     worker count and across repeated runs. *)
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "early stop at jobs=%d bit-identical" jobs)
        true
        (observable (collect ~jobs ~half_width:(Some 0.49))
        = observable stopped))
    [ 1; 2; 8 ]

(* --- figure-level: checkpointed sharded run killed mid-sweep --- *)

let with_temp_dir f =
  let dir = Filename.temp_file "ta_stream" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun name -> Sys.remove (Filename.concat dir name))
          (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path contents =
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc contents)

let null_fmt =
  Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())

(* Small fig6: 3 utilizations, sample size 120, scale 0.25 -> a 10-window
   cap over 4-window shards, so every cell's collection really is
   sharded. *)
let fig6_csv ~jobs ~csv_dir ~checkpoint =
  Scenarios.Sweep.set_checkpoint_dir checkpoint;
  Fun.protect
    ~finally:(fun () -> Scenarios.Sweep.set_checkpoint_dir None)
    (fun () ->
      Exec.Pool.with_jobs jobs (fun () ->
          ignore
            (Scenarios.Fig6.run ~scale:0.25 ~seed:6_100 ~sample_size:120
               ~utilizations:[ 0.05; 0.2; 0.4 ] ~csv_dir null_fmt
              : Scenarios.Fig6.t)))

let test_fig6_resume_mid_sweep_bit_identity () =
  with_temp_dir @@ fun clean_dir ->
  with_temp_dir @@ fun ckpt_dir ->
  with_temp_dir @@ fun resumed_dir ->
  (* Ground truth: uninterrupted, unjournaled, sequential. *)
  fig6_csv ~jobs:1 ~csv_dir:clean_dir ~checkpoint:None;
  let clean = read_file (Filename.concat clean_dir "fig6.csv") in
  (* Checkpointed full run, then chop the journal back to the header plus
     one record — the state a SIGKILL leaves after the first point (the
     second point's shards died mid-collection). *)
  fig6_csv ~jobs:1 ~csv_dir:ckpt_dir ~checkpoint:(Some ckpt_dir);
  Alcotest.(check string) "checkpointed run matches the bare run" clean
    (read_file (Filename.concat ckpt_dir "fig6.csv"));
  let journal = Filename.concat ckpt_dir "fig6.ckpt" in
  (match String.split_on_char '\n' (read_file journal) with
  | header :: records ->
      let kept = List.filteri (fun i _ -> i < 1) records in
      write_file journal (String.concat "\n" (header :: kept) ^ "\n")
  | [] -> Alcotest.fail "journal should not be empty");
  (* Resume at a different worker count: replays point 0, recomputes the
     rest, and must reproduce the uninterrupted CSV byte for byte. *)
  Sys.rename journal (Filename.concat resumed_dir "fig6.ckpt");
  fig6_csv ~jobs:2 ~csv_dir:resumed_dir ~checkpoint:(Some resumed_dir);
  Alcotest.(check string) "resumed at jobs=2 is byte-identical" clean
    (read_file (Filename.concat resumed_dir "fig6.csv"))

let suite =
  [
    Alcotest.test_case "moments vs descriptive" `Quick
      test_moments_matches_descriptive;
    Alcotest.test_case "moments removal" `Quick test_moments_remove;
    Alcotest.test_case "moments merge" `Quick test_moments_merge;
    Alcotest.test_case "hist vs entropy" `Quick test_hist_matches_entropy;
    Alcotest.test_case "window vs batch extractors" `Quick
      test_window_matches_batch;
    Alcotest.test_case "sliding_count" `Quick test_sliding_count;
    Alcotest.test_case "sliding_features vs batch" `Quick
      test_sliding_features_matches_batch;
    Alcotest.test_case "collect_windowed jobs identity" `Quick
      test_collect_windowed_jobs_identity;
    Alcotest.test_case "collect_windowed early stop" `Quick
      test_collect_windowed_early_stop;
    Alcotest.test_case "fig6 resume mid-sweep bit-identity" `Slow
      test_fig6_resume_mid_sweep_bit_identity;
  ]
