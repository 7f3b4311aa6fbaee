(** Checkpointed, supervised sweep execution — the substrate every figure
    sweep routes through.

    A sweep is a list of independent points, each a pure function of its
    index and the root seed.  {!mapi} fans the points out on [Exec.Pool]
    under [Exec.Supervise] containment and returns one tri-state
    {!cell} per point:

    - with a checkpoint directory set ({!set_checkpoint_dir}, the CLI's
      [--checkpoint]), every completed point is journaled to a
      [ta-ckpt/1] file and a rerun replays journaled points instead of
      recomputing them — a SIGKILLed sweep resumes where it stopped and
      its tables are byte-identical to an uninterrupted run, at any
      [--jobs];
    - a point that raises a declared deterministic failure
      ([Starvation.Tap_starved], [Sim.Event_budget_exceeded]) becomes a
      [Point_failed] cell with no retry;
    - any other exception is retried up to {!retries} times with a fresh
      attempt-derived seed ({!attempt_seed}); exhausted points become
      [Point_quarantined];
    - failed/quarantined cells land in a process-wide registry that
      drives the partial-results exit code (4) and the [ta-fail/1]
      manifest.

    In strict mode ({!set_strict}) containment is disabled: the first
    failing point escapes with its original exception (preserving the
    historical exit-3 starvation contract). *)

type status = Exec.Journal.status =
  | Point_ok
  | Point_failed
  | Point_quarantined

type 'a cell = {
  index : int;  (** position in the input list *)
  status : status;
  attempts : int;  (** attempts consumed (1 for a clean first run) *)
  resumed : bool;  (** replayed from the checkpoint journal *)
  value : 'a option;  (** [Some] iff [status = Point_ok] *)
  error : string;  (** deterministic diagnostic; [""] for ok *)
}

type failure = {
  sweep : string;
  index : int;
  f_status : status;
  attempts : int;
  error : string;
}

exception Sweep_internal_error of string
(** Declared replacement for bare [assert false] aborts in sweep drivers,
    so supervision can classify (and retry) broken-invariant paths. *)

(** {1 Process-wide execution knobs} (set from the CLI before sweeps run) *)

val set_checkpoint_dir : string option -> unit
val checkpoint_dir : unit -> string option

val set_retries : int -> unit
(** Re-attempts after the first try (default 2).  Raises
    [Invalid_argument] when negative. *)

val retries : unit -> int

val set_strict : bool -> unit
(** Disable containment: failures escape as raw exceptions. *)

val strict : unit -> bool

val set_event_budget : int option -> unit
(** Per-point simulator event budget (watchdog against runaway points);
    [None] (default) disarms it.  Raises [Invalid_argument] on a
    non-positive budget. *)

val event_budget : unit -> int option

type injection = { inj_sweep : string; inj_index : int; first_ok : int option }
(** Fault-injection spec: point [inj_index] of sweep [inj_sweep] raises
    [Exec.Supervise.Injected_failure] on attempts [< k] when
    [first_ok = Some k], on every attempt when [None]. *)

val parse_injection : string -> (injection list, string) result
(** Parse a comma-separated [SWEEP:INDEX] / [SWEEP:INDEX\@ATTEMPTS] spec
    (the CLI's [--inject-fail]). *)

val set_injections : injection list -> unit
val clear_injections : unit -> unit

(** {1 Running a sweep} *)

val digest_of_string : string -> string
(** MD5 hex of a sweep's full configuration description — the journal
    key.  Callers must fold {e every} input that determines point values
    (scale, seed, point list, sample sizes...) into the string. *)

val attempt_seed : seed:int -> attempt:int -> int
(** [Exec.Supervise.attempt_seed]: identity at attempt 0, fresh
    [Rng.mix_seed] stream per retry. *)

val mapi :
  sweep:string ->
  digest:string ->
  seed:int ->
  ?prepare:(unit -> unit) ->
  task:(attempt:int -> int -> 'a -> 'b) ->
  'a list ->
  'b cell list
(** Run one point per list element, in input order.  [sweep] names the
    journal file and the failure-registry entries; [digest] keys the
    journal (see {!digest_of_string}; supervision settings are folded in
    automatically); [seed] is recorded in journal entries.  [prepare]
    (shared setup such as a one-off trace collection) runs once, and only
    if at least one point is missing from the journal; if it fails, all
    missing points are marked failed with its diagnostic.  [task] receives
    the attempt number (0 on the first try — derive retry seeds with
    {!attempt_seed}), the point index and the element.

    Raises {!Sweep_internal_error} if the journal layer itself
    misbehaves (rows lost or duplicated across a checkpoint cycle) —
    never for ordinary task failures, which are classified into
    {!failures} cells instead. *)

val ok_values : 'b cell list -> 'b list
(** Values of the [Point_ok] cells, in point order. *)

(** {1 Partial-result reporting} *)

val failures : unit -> failure list
(** Every failed/quarantined point registered so far, sorted by
    (sweep, point). *)

val partial : unit -> bool
(** True once any sweep registered a failure. *)

val clear_failures : unit -> unit

val manifest_schema : string
(** ["ta-fail/1"]. *)

val manifest_json : unit -> string
(** The machine-readable failure manifest. *)

val write_manifest : path:string -> unit
(** Write {!manifest_json} to [path] (mkdir -p on its directory). *)

val pp_failures : Format.formatter -> unit
(** One human-readable line per failure. *)

(** {1 Rendering a sweep} *)

val render :
  ?csv:string option * string ->
  ?aggregate:string list list ->
  title:string ->
  columns:string list ->
  key:('a -> string) ->
  rows:('b -> string list list) ->
  'a list ->
  'b cell list ->
  Format.formatter ->
  unit
(** The one sweep-to-table path: build the table of a sweep's points
    (the {!mapi} input list and its cells), print it with {!Table.print}
    and, with [csv], save its CSV copy there too.  Rows come in this
    order: the [aggregate] rows (a table whose rows summarize all points,
    such as the m-ary detection rates), then one row group per point in
    point order — [rows v] for an ok point, and for a failed or
    quarantined point one row of [key x] followed by ["-"] in every
    other column, annotated with its status.  A failed point thus keeps
    its position, and a complete sweep renders exactly its ok rows. *)
