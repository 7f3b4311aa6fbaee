(** Deterministic per-task supervision: exception containment, bounded
    count-based retry, and the per-task event-budget handoff.

    The supervisor never consults the wall clock: retry is bounded by
    attempt count, fresh attempt seeds come from {!attempt_seed}
    (pure in the root seed and attempt index), and classification is a
    pure function of the raised exception.  A supervised sweep therefore
    remains bit-identical at any [--jobs] value, including the outcome
    (retried / quarantined / failed) of every point. *)

exception Injected_failure of { sweep : string; index : int; attempt : int }
(** Raised by the fault-injection hook (see {!Scenarios.Sweep}) to make
    retry and quarantine paths testable end to end from the CLI. *)

type 'a outcome =
  | Completed of { value : 'a; attempts : int }
  | Failed of { attempts : int; error : string }
      (** A declared deterministic failure ([`Fail_fast]): retrying would
          reproduce it exactly, so it is recorded after one attempt. *)
  | Quarantined of { attempts : int; error : string }
      (** Retries exhausted: the point is poison and is isolated from the
          rest of the sweep. *)

val attempt_seed : seed:int -> attempt:int -> int
(** Seed for a retry attempt.  [attempt_seed ~seed ~attempt:0 = seed]
    (the unsupervised baseline is unchanged); later attempts derive a
    fresh stream via [Prng.Rng.mix_seed seed attempt].  Raises
    [Invalid_argument] on a negative attempt. *)

val run :
  ?retries:int ->
  classify:(exn -> [ `Fail_fast | `Retry ]) ->
  describe:(exn -> string) ->
  task:(attempt:int -> 'a) ->
  unit ->
  'a outcome
(** Run [task] under containment.  [retries] (default 2) is the number of
    {e re}-attempts after the first, so a point is tried at most
    [retries + 1] times before quarantine.  [classify] decides whether an
    exception is a deterministic declared failure ([`Fail_fast] — no
    retry) or potentially transient ([`Retry]); [describe] renders the
    exception for journals and manifests (keep it deterministic: it is
    part of the byte-identity contract for resumed tables).  Updates the
    [exec.task.retried/failed/quarantined] counters.  Raises
    [Invalid_argument] if [retries < 0]. *)

val with_event_budget : int option -> (unit -> 'a) -> 'a
(** Run [f] with a per-task simulator event budget installed in
    domain-local storage (restored afterwards).  Every run driver
    ([System.run*], [Degradation], [Fleet.Mux]) calls
    {!arm_event_budget} on its simulator, so a pathological sweep point
    raises [Sim.Event_budget_exceeded] instead of spinning forever. *)

val arm_event_budget : Desim.Sim.t -> unit
(** Install the budget of the nearest enclosing {!with_event_budget} on
    this domain, if any, with [Desim.Sim.set_event_budget].  No-op when
    no budget is installed. *)
