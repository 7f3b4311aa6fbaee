(* Discrete-event core: event queue ordering, clock semantics,
   cancellation, periodic trains. *)

let test_queue_orders_by_time () =
  let q = Desim.Event_queue.create () in
  List.iter (fun (t, v) -> Desim.Event_queue.push q ~time:t v)
    [ (3.0, "c"); (1.0, "a"); (2.0, "b") ];
  let pop () = match Desim.Event_queue.pop q with
    | Some (_, v) -> v
    | None -> Alcotest.fail "unexpected empty"
  in
  Alcotest.(check string) "first" "a" (pop ());
  Alcotest.(check string) "second" "b" (pop ());
  Alcotest.(check string) "third" "c" (pop ());
  Alcotest.(check bool) "drained" true (Desim.Event_queue.is_empty q)

let test_queue_fifo_on_ties () =
  let q = Desim.Event_queue.create () in
  for i = 0 to 9 do
    Desim.Event_queue.push q ~time:5.0 i
  done;
  for i = 0 to 9 do
    match Desim.Event_queue.pop q with
    | Some (_, v) -> Alcotest.(check int) "insertion order" i v
    | None -> Alcotest.fail "empty"
  done

let test_queue_peek () =
  let q = Desim.Event_queue.create () in
  Alcotest.(check bool) "empty" true (Desim.Event_queue.is_empty q);
  Desim.Event_queue.push q ~time:7.0 ();
  Alcotest.(check (float 0.0)) "peek" 7.0 (Desim.Event_queue.min_time q);
  Alcotest.(check int) "size" 1 (Desim.Event_queue.size q)

let test_queue_nan_rejected () =
  let q = Desim.Event_queue.create () in
  Alcotest.check_raises "NaN" (Invalid_argument "Event_queue.push: NaN time")
    (fun () -> Desim.Event_queue.push q ~time:Float.nan ())

let test_queue_heap_property_random () =
  let rng = Prng.Rng.create ~seed:91 in
  let q = Desim.Event_queue.create () in
  for _ = 1 to 10_000 do
    Desim.Event_queue.push q ~time:(Prng.Rng.float rng) ()
  done;
  let prev = ref Float.neg_infinity in
  let rec drain () =
    match Desim.Event_queue.pop q with
    | None -> ()
    | Some (t, ()) ->
        if t < !prev then Alcotest.failf "out of order: %f after %f" t !prev;
        prev := t;
        drain ()
  in
  drain ()

let test_sim_clock_advances () =
  let sim = Desim.Sim.create () in
  let seen = ref [] in
  ignore (Desim.Sim.at sim ~time:2.0 (fun () -> seen := 2 :: !seen));
  ignore (Desim.Sim.at sim ~time:1.0 (fun () -> seen := 1 :: !seen));
  Desim.Sim.run_until sim ~time:1.5;
  Alcotest.(check (list int)) "only first ran" [ 1 ] !seen;
  Alcotest.(check (float 0.0)) "clock at horizon" 1.5 (Desim.Sim.now sim);
  Desim.Sim.run_until sim ~time:3.0;
  Alcotest.(check (list int)) "both ran" [ 2; 1 ] !seen

let test_sim_past_scheduling_rejected () =
  let sim = Desim.Sim.create () in
  Desim.Sim.run_until sim ~time:5.0;
  Alcotest.check_raises "past" (Invalid_argument "Sim.at: time in the past")
    (fun () -> ignore (Desim.Sim.at sim ~time:4.0 (fun () -> ())));
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Sim.after: negative delay") (fun () ->
      ignore (Desim.Sim.after sim ~delay:(-1.0) (fun () -> ())))

let test_sim_cancellation () =
  let sim = Desim.Sim.create () in
  let ran = ref false in
  let h = Desim.Sim.at sim ~time:1.0 (fun () -> ran := true) in
  Desim.Sim.cancel h;
  Alcotest.(check bool) "marked" true (Desim.Sim.cancelled h);
  Desim.Sim.run_until sim ~time:2.0;
  Alcotest.(check bool) "never ran" false !ran

let test_sim_cancellation_under_churn () =
  (* Heavy schedule/cancel churn, including cancellations issued from
     inside callbacks: exactly the uncancelled events run, each once. *)
  let sim = Desim.Sim.create () in
  let rng = Prng.Rng.create ~seed:77 in
  let n = 2_000 in
  let runs = Array.make n 0 in
  let handles =
    Array.init n (fun i ->
        Desim.Sim.at sim
          ~time:(1.0 +. Prng.Rng.float rng)
          (fun () -> runs.(i) <- runs.(i) + 1))
  in
  (* Cancel a third up front... *)
  let expect = Array.make n true in
  for i = 0 to n - 1 do
    if i mod 3 = 0 then begin
      Desim.Sim.cancel handles.(i);
      expect.(i) <- false
    end
  done;
  (* ...and another slice from inside a callback that fires mid-run. *)
  ignore
    (Desim.Sim.at sim ~time:1.5 (fun () ->
         for i = 0 to n - 1 do
           if i mod 3 = 1 && Desim.Sim.cancelled handles.(i) = false then
             if i mod 6 = 1 then begin
               Desim.Sim.cancel handles.(i);
               (* Events at time <= 1.5 have already fired; only the
                  still-pending ones are suppressed. *)
               if runs.(i) = 0 then expect.(i) <- false
             end
         done)
      : Desim.Sim.handle);
  Desim.Sim.run_until sim ~time:3.0;
  Array.iteri
    (fun i r ->
      let want = if expect.(i) then 1 else 0 in
      if r <> want then Alcotest.failf "event %d ran %d times, wanted %d" i r want)
    runs;
  (* Double-cancel stays idempotent. *)
  Array.iter Desim.Sim.cancel handles

let test_every_rearms_under_churn () =
  (* A periodic train must keep its period exactly even while thousands of
     one-shot events are scheduled and cancelled around it. *)
  let sim = Desim.Sim.create () in
  let rng = Prng.Rng.create ~seed:78 in
  let fires = ref [] in
  let train =
    Desim.Sim.every sim
      ~interval:(fun () -> 0.01)
      (fun () -> fires := Desim.Sim.now sim :: !fires)
  in
  let noise () =
    let h =
      Desim.Sim.after sim
        ~delay:(Prng.Sampler.exponential rng ~rate:2_000.0)
        (fun () -> ())
    in
    if Prng.Rng.float rng < 0.5 then Desim.Sim.cancel h
  in
  for _ = 1 to 200 do
    for _ = 1 to 25 do
      noise ()
    done;
    Desim.Sim.run_until sim ~time:(Desim.Sim.now sim +. 0.005)
  done;
  let arr = Array.of_list (List.rev !fires) in
  Alcotest.(check int) "exactly one fire per period" 100 (Array.length arr);
  Array.iteri
    (fun i t ->
      let expected = 0.01 *. float_of_int (i + 1) in
      if Float.abs (t -. expected) > 1e-9 then
        Alcotest.failf "fire %d at %.6f, expected %.6f" i t expected)
    arr;
  Desim.Sim.cancel train;
  Desim.Sim.run_until sim ~time:(Desim.Sim.now sim +. 1.0);
  Alcotest.(check int) "train cancelled" 100 (List.length !fires)

let test_sim_callbacks_can_schedule () =
  let sim = Desim.Sim.create () in
  let log = ref [] in
  ignore
    (Desim.Sim.at sim ~time:1.0 (fun () ->
         log := "outer" :: !log;
         ignore (Desim.Sim.after sim ~delay:0.5 (fun () -> log := "inner" :: !log))));
  Desim.Sim.run_until sim ~time:2.0;
  Alcotest.(check (list string)) "nested ran in order" [ "inner"; "outer" ] !log

let test_sim_same_time_cascade () =
  (* An event scheduling another at the *same* instant must run within the
     same run_until. *)
  let sim = Desim.Sim.create () in
  let count = ref 0 in
  ignore
    (Desim.Sim.at sim ~time:1.0 (fun () ->
         incr count;
         ignore (Desim.Sim.at sim ~time:1.0 (fun () -> incr count))));
  Desim.Sim.run_until sim ~time:1.0;
  Alcotest.(check int) "both ran" 2 !count

let test_every_fixed_interval () =
  let sim = Desim.Sim.create () in
  let times = ref [] in
  let h =
    Desim.Sim.every sim ~interval:(fun () -> 1.0) (fun () ->
        times := Desim.Sim.now sim :: !times)
  in
  Desim.Sim.run_until sim ~time:5.5;
  Alcotest.(check (list (float 1e-12))) "ticked at 1..5"
    [ 5.0; 4.0; 3.0; 2.0; 1.0 ] !times;
  Desim.Sim.cancel h;
  Desim.Sim.run_until sim ~time:10.0;
  Alcotest.(check int) "no ticks after cancel" 5 (List.length !times)

let test_every_random_interval_redrawn () =
  (* With a strictly increasing interval function, gaps must increase:
     proves the interval is re-drawn each period, which is what makes a
     VIT timer variable. *)
  let sim = Desim.Sim.create () in
  let step = ref 0.0 in
  let times = ref [] in
  ignore
    (Desim.Sim.every sim
       ~interval:(fun () ->
         step := !step +. 1.0;
         !step)
       (fun () -> times := Desim.Sim.now sim :: !times));
  Desim.Sim.run_until sim ~time:11.0;
  (* fires at 1, 3, 6, 10 *)
  Alcotest.(check (list (float 1e-12))) "growing gaps" [ 10.0; 6.0; 3.0; 1.0 ] !times

let test_every_start_override () =
  let sim = Desim.Sim.create () in
  let first = ref None in
  ignore
    (Desim.Sim.every sim ~start:0.25
       ~interval:(fun () -> 1.0)
       (fun () -> if !first = None then first := Some (Desim.Sim.now sim)));
  Desim.Sim.run_until sim ~time:2.0;
  Alcotest.(check (option (float 1e-12))) "first at start" (Some 0.25) !first

(* A runaway self-rescheduling chain drained with [run_until] trips the
   armed event budget once the drain has passed it. *)
let test_run_all_budget () =
  let sim = Desim.Sim.create () in
  let rec loop () = ignore (Desim.Sim.after sim ~delay:1.0 loop) in
  loop ();
  Desim.Sim.set_event_budget sim ~max_events:100;
  Alcotest.check_raises "budget"
    (Desim.Sim.Event_budget_exceeded { max_events = 100 })
    (fun () -> Desim.Sim.run_until sim ~time:1000.0)

let test_pending_count () =
  let sim = Desim.Sim.create () in
  ignore (Desim.Sim.at sim ~time:1.0 (fun () -> ()));
  ignore (Desim.Sim.at sim ~time:2.0 (fun () -> ()));
  Alcotest.(check int) "two pending" 2 (Desim.Sim.pending sim);
  Desim.Sim.run_until sim ~time:3.0;
  Alcotest.(check int) "drained" 0 (Desim.Sim.pending sim)

let prop_queue_is_sort =
  QCheck.Test.make ~name:"event queue drains as a stable sort" ~count:100
    QCheck.(list_of_size Gen.(int_range 0 200) (float_bound_exclusive 100.0))
    (fun times ->
      let q = Desim.Event_queue.create () in
      List.iteri (fun i t -> Desim.Event_queue.push q ~time:t i) times;
      let rec drain acc =
        match Desim.Event_queue.pop q with
        | None -> List.rev acc
        | Some (t, i) -> drain ((t, i) :: acc)
      in
      let drained = drain [] in
      let expected =
        List.mapi (fun i t -> (t, i)) times
        |> List.stable_sort (fun (t1, _) (t2, _) -> compare t1 t2)
      in
      drained = expected)

(* --- SoA queue internals: free-list reuse, growth, payload storage --- *)

(* Reference model: a list kept sorted by (time, push order).  Stable
   insertion after all entries with time <= t reproduces the FIFO
   tie-break contract. *)
let ref_insert reference t seq =
  let rec ins = function
    | [] -> [ (t, seq) ]
    | (t', s') :: tl when t' <= t -> (t', s') :: ins tl
    | rest -> (t, seq) :: rest
  in
  ins reference

let prop_queue_interleaved_matches_reference =
  QCheck.Test.make
    ~name:"interleaved push/pop matches a sorted-list reference" ~count:300
    QCheck.(list (pair bool (float_bound_exclusive 100.0)))
    (fun ops ->
      let q = Desim.Event_queue.create () in
      let reference = ref [] in
      let seq = ref 0 in
      let ok = ref true in
      let pop_and_check () =
        match (Desim.Event_queue.pop q, !reference) with
        | None, [] -> ()
        | Some (t, v), (rt, rv) :: tl when t = rt && v = rv -> reference := tl
        | _ -> ok := false
      in
      List.iter
        (fun (is_push, t) ->
          if is_push then begin
            Desim.Event_queue.push q ~time:t !seq;
            reference := ref_insert !reference t !seq;
            incr seq
          end
          else pop_and_check ())
        ops;
      while not (Desim.Event_queue.is_empty q && !reference = []) && !ok do
        pop_and_check ()
      done;
      !ok)

let test_queue_growth_across_free_list () =
  (* Fill the initial 16-slot storage, free half the slots, then push far
     past capacity: growth must carry live entries and the free list
     without losing or reordering anything. *)
  let q = Desim.Event_queue.create () in
  let reference = ref [] in
  let seq = ref 0 in
  let push t =
    Desim.Event_queue.push q ~time:t !seq;
    reference := ref_insert !reference t !seq;
    incr seq
  in
  for i = 0 to 15 do
    push (float_of_int ((i * 11) mod 16))
  done;
  for _ = 0 to 7 do
    match (Desim.Event_queue.pop q, !reference) with
    | Some (t, v), (rt, rv) :: tl when t = rt && v = rv -> reference := tl
    | _ -> Alcotest.fail "mismatch before growth"
  done;
  for i = 0 to 39 do
    push (float_of_int ((i * 7) mod 20))
  done;
  Alcotest.(check bool) "grew past initial capacity" true
    (Desim.Event_queue.capacity q > 16);
  let rec drain () =
    match (Desim.Event_queue.pop q, !reference) with
    | None, [] -> ()
    | Some (t, v), (rt, rv) :: tl when t = rt && v = rv ->
        reference := tl;
        drain ()
    | _ -> Alcotest.fail "mismatch after growth"
  in
  drain ()

let test_queue_float_payload_roundtrip () =
  (* Float payloads exercise the specialised-array storage path the old
     Obj.magic seeding used to corrupt in theory; every value must come
     back bit-exact through min_time/pop_exn. *)
  let q = Desim.Event_queue.create () in
  for i = 0 to 99 do
    Desim.Event_queue.push q ~time:(float_of_int (99 - i)) (float_of_int i *. 1.5)
  done;
  for k = 0 to 99 do
    let t = Desim.Event_queue.min_time q in
    let v = Desim.Event_queue.pop_exn q in
    Alcotest.(check (float 0.0)) "time order" (float_of_int k) t;
    Alcotest.(check (float 0.0)) "payload" ((99.0 -. t) *. 1.5) v
  done;
  Alcotest.check_raises "min_time empty"
    (Invalid_argument "Event_queue.min_time: empty queue") (fun () ->
      ignore (Desim.Event_queue.min_time q : float));
  Alcotest.check_raises "pop_exn empty"
    (Invalid_argument "Event_queue.pop_exn: empty queue") (fun () ->
      ignore (Desim.Event_queue.pop_exn q : float))

let test_queue_clear_reuse_deterministic () =
  (* After clear, a reused queue must behave exactly like a fresh one —
     including the FIFO tie-break, i.e. the push counter restarts. *)
  let drive q =
    List.iter
      (fun (t, v) -> Desim.Event_queue.push q ~time:t v)
      [ (2.0, 0); (1.0, 1); (2.0, 2); (1.0, 3); (2.0, 4) ];
    let rec drain acc =
      match Desim.Event_queue.pop q with
      | None -> List.rev acc
      | Some (_, v) -> drain (v :: acc)
    in
    drain []
  in
  let fresh = drive (Desim.Event_queue.create ()) in
  let q = Desim.Event_queue.create () in
  for i = 0 to 40 do
    Desim.Event_queue.push q ~time:(float_of_int i) i
  done;
  let cap_before = Desim.Event_queue.capacity q in
  Desim.Event_queue.clear q;
  Alcotest.(check int) "empty after clear" 0 (Desim.Event_queue.size q);
  Alcotest.(check int) "capacity kept" cap_before (Desim.Event_queue.capacity q);
  Alcotest.(check (list int)) "reused = fresh" fresh (drive q)

let test_queue_steady_state_allocs () =
  (* Canary against reintroducing per-event heap records: in steady state a
     push/pop cycle must stay within a few words (float boxing at the call
     boundary), far below the old entry-record + option + tuple cost. *)
  match Sys.backend_type with
  | Sys.Native ->
      let q = Desim.Event_queue.create () in
      let iter () =
        Desim.Event_queue.clear q;
        for i = 0 to 999 do
          Desim.Event_queue.push q ~time:(float_of_int ((i * 7919) mod 1000)) ()
        done;
        while not (Desim.Event_queue.is_empty q) do
          ignore (Desim.Event_queue.min_time q : float);
          Desim.Event_queue.pop_exn q
        done
      in
      iter ();
      let w0 = Gc.minor_words () in
      for _ = 1 to 10 do
        iter ()
      done;
      let per_op = (Gc.minor_words () -. w0) /. 20_000.0 in
      if per_op > 4.0 then
        Alcotest.failf "steady-state allocation %.2f words/op (want <= 4)" per_op
  | _ -> ()

let test_rearm () =
  let sim = Desim.Sim.create () in
  let fired = ref [] in
  let h =
    Desim.Sim.at sim ~time:1.0 (fun () -> fired := Desim.Sim.now sim :: !fired)
  in
  Desim.Sim.run_until sim ~time:1.0;
  (* Re-arming the same handle twice queues two distinct occurrences. *)
  Desim.Sim.rearm sim h ~delay:0.5;
  Desim.Sim.rearm sim h ~delay:0.75;
  Desim.Sim.run_until sim ~time:2.0;
  Alcotest.(check (list (float 1e-12))) "original + both re-arms"
    [ 1.75; 1.5; 1.0 ] !fired;
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Sim.rearm: negative delay") (fun () ->
      Desim.Sim.rearm sim h ~delay:(-0.1));
  (* A cancelled handle stays cancelled through a re-arm. *)
  Desim.Sim.cancel h;
  Desim.Sim.rearm sim h ~delay:0.1;
  Desim.Sim.run_until sim ~time:3.0;
  Alcotest.(check int) "cancelled re-arm suppressed" 3 (List.length !fired)

let test_reset_restores_determinism () =
  (* A reset simulator must replay a schedule bit-identically to a fresh
     one — same clock, same FIFO tie-breaks (push counter restarts). *)
  let record sim =
    let log = ref [] in
    ignore
      (Desim.Sim.every sim
         ~interval:(fun () -> 0.25)
         (fun () -> log := (Desim.Sim.now sim, 0) :: !log)
        : Desim.Sim.handle);
    (* Two same-time events: their order is decided by the push counter. *)
    ignore (Desim.Sim.at sim ~time:0.5 (fun () -> log := (0.5, 1) :: !log)
             : Desim.Sim.handle);
    ignore (Desim.Sim.at sim ~time:0.5 (fun () -> log := (0.5, 2) :: !log)
             : Desim.Sim.handle);
    Desim.Sim.run_until sim ~time:1.0;
    List.rev !log
  in
  let fresh = record (Desim.Sim.create ()) in
  let sim = Desim.Sim.create () in
  ignore (Desim.Sim.at sim ~time:0.1 (fun () -> ()) : Desim.Sim.handle);
  ignore (Desim.Sim.at sim ~time:9.0 (fun () -> ()) : Desim.Sim.handle);
  Desim.Sim.run_until sim ~time:0.35;
  Desim.Sim.reset sim;
  Alcotest.(check int) "pending cleared" 0 (Desim.Sim.pending sim);
  Alcotest.(check (float 0.0)) "clock reset" 0.0 (Desim.Sim.now sim);
  Alcotest.(check (list (pair (float 1e-12) int))) "reset = fresh" fresh
    (record sim)

(* A train's events run where queued events would have popped them.  At
   a time tie a train event comes after the events queued before its
   vseq was taken (at registration, or while its previous event ran) and
   before those queued after.  Each counts as one processed event,
   dispatch_seq is its vseq while it runs, and a reset drops the
   train. *)
let test_train_tie_order () =
  let sim = Desim.Sim.create () in
  let log = ref [] in
  let at name =
    ignore
      (Desim.Sim.at sim ~time:1.0 (fun () -> log := name :: !log)
        : Desim.Sim.handle)
  in
  let next = Float.Array.make 1 1.0 in
  let runs = ref 0 in
  at "queued before";
  Desim.Sim.add_train sim ~next (fun () ->
      incr runs;
      log := Printf.sprintf "train %d" (Desim.Sim.dispatch_seq sim) :: !log;
      (* once more at the same time, vseq 2, then no further event *)
      Float.Array.set next 0 (if !runs = 1 then 1.0 else infinity));
  at "queued after";
  Desim.Sim.run_until sim ~time:2.0;
  Alcotest.(check (list string)) "queue order"
    [ "queued before"; "train 1"; "queued after"; "train 2" ]
    (List.rev !log);
  Alcotest.(check int) "four events" 4 (Desim.Sim.events_processed sim);
  Alcotest.(check int) "no dispatch outside run_until" max_int
    (Desim.Sim.dispatch_seq sim);
  Desim.Sim.reset sim;
  Float.Array.set next 0 3.0;
  Desim.Sim.run_until sim ~time:4.0;
  Alcotest.(check int) "reset drops the train" 2 !runs

let suite =
  [
    Alcotest.test_case "queue time order" `Quick test_queue_orders_by_time;
    Alcotest.test_case "queue FIFO ties" `Quick test_queue_fifo_on_ties;
    Alcotest.test_case "queue peek/size" `Quick test_queue_peek;
    Alcotest.test_case "queue rejects NaN" `Quick test_queue_nan_rejected;
    Alcotest.test_case "queue random heap property" `Quick test_queue_heap_property_random;
    Alcotest.test_case "clock advances" `Quick test_sim_clock_advances;
    Alcotest.test_case "no scheduling in the past" `Quick test_sim_past_scheduling_rejected;
    Alcotest.test_case "cancellation" `Quick test_sim_cancellation;
    Alcotest.test_case "cancellation under churn" `Quick
      test_sim_cancellation_under_churn;
    Alcotest.test_case "every: re-arms under churn" `Quick
      test_every_rearms_under_churn;
    Alcotest.test_case "nested scheduling" `Quick test_sim_callbacks_can_schedule;
    Alcotest.test_case "same-instant cascade" `Quick test_sim_same_time_cascade;
    Alcotest.test_case "every: fixed interval" `Quick test_every_fixed_interval;
    Alcotest.test_case "every: interval re-drawn" `Quick test_every_random_interval_redrawn;
    Alcotest.test_case "every: start override" `Quick test_every_start_override;
    Alcotest.test_case "run_all event budget" `Quick test_run_all_budget;
    Alcotest.test_case "pending count" `Quick test_pending_count;
    QCheck_alcotest.to_alcotest prop_queue_is_sort;
    QCheck_alcotest.to_alcotest prop_queue_interleaved_matches_reference;
    Alcotest.test_case "queue growth across free list" `Quick
      test_queue_growth_across_free_list;
    Alcotest.test_case "queue float payload roundtrip" `Quick
      test_queue_float_payload_roundtrip;
    Alcotest.test_case "queue clear-reuse determinism" `Quick
      test_queue_clear_reuse_deterministic;
    Alcotest.test_case "queue steady-state allocations" `Quick
      test_queue_steady_state_allocs;
    Alcotest.test_case "rearm" `Quick test_rearm;
    Alcotest.test_case "reset restores determinism" `Quick
      test_reset_restores_determinism;
    Alcotest.test_case "train: queue order at ties" `Quick test_train_tie_order;
  ]
