let default_cap = 16
let hard_cap = 512

let available_cores () = Domain.recommended_domain_count ()

let env_jobs () =
  match Sys.getenv_opt "EXEC_JOBS" with
  | None -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> Some (Stdlib.min n hard_cap)
      | Some _ | None -> None)

(* [default] holds the resolved worker count (0 = not yet resolved);
   [tokens] holds the spare-worker tokens (-1 = not yet resolved).  Both
   are resolved together, exactly once, on first use — or eagerly by
   [set_default_jobs]. *)
let default = Atomic.make 0
let tokens = Atomic.make (-1)

let resolve () =
  match env_jobs () with
  | Some n -> n
  | None -> Stdlib.max 1 (Stdlib.min (available_cores ()) default_cap)

let rec default_jobs () =
  match Atomic.get default with
  | 0 ->
      let d = resolve () in
      if Atomic.compare_and_set default 0 d then begin
        ignore (Atomic.compare_and_set tokens (-1) (d - 1));
        d
      end
      else default_jobs ()
  | d -> d

let set_default_jobs n =
  if n < 1 then invalid_arg "Exec.Pool.set_default_jobs: jobs < 1";
  let n = Stdlib.min n hard_cap in
  Atomic.set default n;
  Atomic.set tokens (n - 1)

(* talint: allow U001 — tests read it to observe the live token budget *)
let spare_tokens () =
  ignore (default_jobs ());
  Stdlib.max 0 (Atomic.get tokens)

let with_jobs n f =
  if n < 1 then invalid_arg "Exec.Pool.with_jobs: jobs < 1";
  let prev = default_jobs () in
  set_default_jobs n;
  Fun.protect ~finally:(fun () -> set_default_jobs prev) f

(* Take up to [k] spare-worker tokens; returns how many were obtained. *)
let acquire k =
  ignore (default_jobs ());
  let rec go taken =
    if taken >= k then taken
    else
      let cur = Atomic.get tokens in
      if cur <= 0 then taken
      else if Atomic.compare_and_set tokens cur (cur - 1) then go (taken + 1)
      else go taken
  in
  go 0

let release k = if k > 0 then ignore (Atomic.fetch_and_add tokens k)

(* All exec.* metrics are wall-clock / scheduling facts, so they vary with
   the worker count by design; determinism checks must filter the [exec.]
   prefix out (Obs.Metrics.Snapshot.filter_prefix makes that cheap). *)
let m_fanouts = Obs.Metrics.counter "exec.pool.fanouts"
let m_sequential = Obs.Metrics.counter "exec.pool.sequential"
let m_tasks = Obs.Metrics.counter "exec.pool.tasks"
let m_domains = Obs.Metrics.counter "exec.pool.domains_spawned"

(* Shared-counter work queue: each worker (the [extra] spawned domains
   plus the calling domain) repeatedly claims the next unclaimed index.
   [body] must not raise — task exceptions are captured per slot. *)
let run_tasks ~extra n body =
  let next = Atomic.make 0 in
  let rec worker () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      body i;
      worker ()
    end
  in
  let domains = List.init extra (fun _ -> Domain.spawn worker) in
  worker ();
  List.iter Domain.join domains

let finish results =
  let n = Array.length results in
  let rec first_error i =
    if i < n then
      match results.(i) with
      | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
      | Some (Ok _) | None -> first_error (i + 1)
  in
  first_error 0;
  Array.map
    (function Some (Ok v) -> v | Some (Error _) | None -> assert false)
    results

(* Core combinator: tabulate [g] over 0..n-1 with up to [jobs] workers. *)
let run_indexed ?jobs n g =
  if n < 0 then invalid_arg "Exec.Pool: negative task count";
  let requested =
    match jobs with
    | Some j when j < 1 -> invalid_arg "Exec.Pool: jobs < 1"
    | Some j -> Stdlib.min j hard_cap
    | None -> default_jobs ()
  in
  Obs.Metrics.add m_tasks n;
  let wanted = Stdlib.min (requested - 1) (n - 1) in
  if wanted <= 0 then begin
    Obs.Metrics.incr m_sequential;
    Array.init n g
  end
  else begin
    let extra = acquire wanted in
    if extra = 0 then begin
      Obs.Metrics.incr m_sequential;
      Array.init n g
    end
    else begin
      Obs.Metrics.incr m_fanouts;
      Obs.Metrics.add m_domains extra;
      let results = Array.make n None in
      let body i =
        results.(i) <-
          Some
            (match g i with
            | v -> Ok v
            | exception e -> Error (e, Printexc.get_raw_backtrace ()))
      in
      Fun.protect
        ~finally:(fun () -> release extra)
        (fun () -> run_tasks ~extra n body);
      finish results
    end
  end

let parallel_init ?jobs n g = run_indexed ?jobs n g

let parallel_map ?jobs f xs =
  let arr = Array.of_list xs in
  Array.to_list (run_indexed ?jobs (Array.length arr) (fun i -> f arr.(i)))

let both ?jobs f g =
  match run_indexed ?jobs 2 (fun i -> if i = 0 then `A (f ()) else `B (g ())) with
  | [| `A a; `B b |] -> (a, b)
  | _ -> assert false
