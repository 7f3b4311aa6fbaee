(* Per-task supervision for sweep points: exception containment, bounded
   deterministic retry, and a per-task event-budget handoff to the
   simulator.  Everything here is count-based — no wall-clock, no
   timeouts — so a supervised run is a pure function of its seeds and the
   outcome sequence is identical at any --jobs value. *)

exception Injected_failure of { sweep : string; index : int; attempt : int }

let () =
  Printexc.register_printer (function
    | Injected_failure { sweep; index; attempt } ->
        Some
          (Printf.sprintf "injected failure (%s point %d, attempt %d)" sweep
             index attempt)
    | _ -> None)

type 'a outcome =
  | Completed of { value : 'a; attempts : int }
  | Failed of { attempts : int; error : string }
  | Quarantined of { attempts : int; error : string }

let m_retried = Obs.Metrics.counter "exec.task.retried"
let m_failed = Obs.Metrics.counter "exec.task.failed"
let m_quarantined = Obs.Metrics.counter "exec.task.quarantined"

let attempt_seed ~seed ~attempt =
  (* Attempt 0 must reproduce the unsupervised sweep exactly, so the
     baseline tables are unchanged; retries re-derive a fresh, equally
     deterministic stream from the attempt index. *)
  if attempt < 0 then invalid_arg "Supervise.attempt_seed: attempt < 0";
  if attempt = 0 then seed else Prng.Rng.mix_seed seed attempt

let run ?(retries = 2) ~classify ~describe ~task () =
  if retries < 0 then invalid_arg "Supervise.run: retries < 0";
  let rec go attempt =
    match task ~attempt with
    | v -> Completed { value = v; attempts = attempt + 1 }
    | exception e -> (
        match classify e with
        | `Fail_fast ->
            (* A declared, deterministic failure (starved tap, blown event
               budget): retrying would reproduce it bit for bit. *)
            Obs.Metrics.incr m_failed;
            Failed { attempts = attempt + 1; error = describe e }
        | `Retry ->
            if attempt >= retries then begin
              Obs.Metrics.incr m_quarantined;
              Quarantined { attempts = attempt + 1; error = describe e }
            end
            else begin
              Obs.Metrics.incr m_retried;
              go (attempt + 1)
            end)
  in
  go 0

(* --- per-task event budget, handed to every run driver via
   domain-local storage so the sweep runner does not thread it through
   every config record --- *)

let budget_key = Domain.DLS.new_key (fun () -> None)

let arm_event_budget sim =
  match Domain.DLS.get budget_key with
  | Some max_events -> Desim.Sim.set_event_budget sim ~max_events
  | None -> ()

let with_event_budget budget f =
  let prev = Domain.DLS.get budget_key in
  Domain.DLS.set budget_key budget;
  Fun.protect ~finally:(fun () -> Domain.DLS.set budget_key prev) f
