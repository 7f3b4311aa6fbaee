(** Discrete-event simulator.

    A simulation is a clock plus a queue of [unit -> unit] callbacks.
    Components schedule future work with {!at} or {!after}; {!run_until}
    drains events in timestamp order (insertion order on ties), advancing
    the clock monotonically.

    Events can be cancelled through the handle returned by the schedulers;
    cancellation is O(1) (the event is skipped when popped).  A periodic
    helper covers the timer-driven padding gateways.  A source whose
    events schedule nothing registers as a {e train} ({!add_train}): its
    events are not queued, and {!run_until} runs them between dispatches
    in the order the queue would have popped them. *)

type t

type handle
(** Cancellation handle for a scheduled event. *)

val create : ?start_time:float -> unit -> t

val reset : ?start_time:float -> t -> unit
(** Return the simulator to its just-created state while keeping the
    event queue's allocated capacity: pending events are discarded, the
    clock rewinds to [start_time] (default 0), the local tallies are
    zeroed and registered trains are dropped.  A reset simulator behaves
    exactly like a fresh one — the arena-reuse hook that lets sweep
    harnesses run thousands of simulations without re-growing the queue
    each time.  Unpublished
    tallies are dropped; call {!publish_metrics} first if they matter. *)

val now : t -> float
(** Current simulation time (seconds). *)

val pending : t -> int
(** Number of scheduled (possibly cancelled) events still queued. *)

val events_processed : t -> int
(** Events popped or run as train events since creation or the last
    {!publish_metrics}. *)

val queue_hwm : t -> int
(** Queue-depth high-water mark since creation or the last
    {!publish_metrics}. *)

val dispatch_seq : t -> int
(** Queue sequence number of the event {!run_until} is dispatching:
    events at one time pop in this order.  For a train's event it is the
    event's vseq (see {!add_train}).  [max_int] when no event is being
    dispatched (before the first, after {!run_until} returns); after a
    callback raised, its event stays the one being dispatched. *)

val next_seq : t -> int
(** The sequence number the next scheduled event takes.  A departure
    that is recorded instead of scheduled keeps this value: at a time tie
    it would have popped before the current event exactly when the value
    is [<= dispatch_seq t].  [Netsim.Link] settles packets that exit at
    its far end this way. *)

val publish_metrics : t -> unit
(** Flush the local tallies into the [Obs] registry
    ([desim.events_processed] counter, [desim.queue_hwm] gauge) and reset
    them.  Call once per finished simulation run; keeping tallies local
    until then keeps the event loop free of shared-state traffic. *)

val at : t -> time:float -> (unit -> unit) -> handle
(** Schedule a callback at an absolute time.  Raises [Invalid_argument] if
    [time] is in the past (< now). *)

val after : t -> delay:float -> (unit -> unit) -> handle
(** Schedule after a non-negative delay from now. *)

val cancel : handle -> unit
(** Idempotent; a cancelled event's callback never runs. *)

val cancelled : handle -> bool

val rearm : t -> handle -> delay:float -> unit
(** Schedule one more occurrence of an existing handle's callback,
    [delay] from now, without allocating a new handle — the
    self-rescheduling idiom for hot periodic processes.  Each pending
    occurrence runs once: re-arming a handle that is already pending
    queues an additional run (the gateway uses this to drive a FIFO of
    in-flight emissions off a single event record).  Cancelling the
    handle suppresses all of its pending occurrences at once.  Raises
    [Invalid_argument] on negative or NaN delay. *)

val every :
  t -> ?start:float -> interval:(unit -> float) -> (unit -> unit) -> handle
(** [every t ~interval f] runs [f] repeatedly; after each run the next
    occurrence is scheduled [interval ()] later (so random intervals are
    re-drawn each period — exactly a VIT timer).  Intervals must be
    positive.  The returned handle cancels the whole train.  [start]
    defaults to now + interval ().  The whole train reuses one event
    record, so a steady-state period performs no allocation beyond the
    interval function's own. *)

val account_external : t -> events:int -> queue_hwm:int -> unit
(** Fold work performed outside the event queue into the simulator's
    local tallies, as if [events] events had been popped and the queue
    had reached depth [queue_hwm].  The fused scenario kernels use this
    to stay comparable with the event-loop path: per processed chunk
    they account the events the loop {e would} have dispatched, then
    call {!run_until} on the (empty) queue so the clock advances and the
    event budget is enforced with the same chunk granularity and the
    same totals as a real drain.  Raises [Invalid_argument] on negative
    arguments. *)

val add_train : t -> next:floatarray -> (unit -> unit) -> unit
(** [add_train t ~next step] registers a source of events that schedule
    nothing, e.g. a hop's cross arrivals ([Netsim.Cross_train]).  Slot 0
    of [next] holds the time of its pending event (infinity: none); [step
    ()] runs that event and writes the following one's time there.  The
    pending event's vseq is {!next_seq} when the source would have queued
    it: now, then each time [step] returns.  {!run_until} runs it right
    before the first queued event (time, seq) the queue would have
    popped after it: a later time, or the same time and vseq <= seq.
    That is the queue's own order, because [step] pushes no event and so
    the next seq does not move between two dispatches.  While [step] runs, {!dispatch_seq}
    is the vseq; {!now} is not moved, so [step] takes its time from
    [next].  Each run counts as one processed event.  Raises
    [Invalid_argument] if slot 0 is NaN or in the past. *)

val run_until : t -> time:float -> unit
(** Execute all events with timestamp <= [time], trains' included;
    afterwards [now] = [time].
    Callbacks may schedule more events, including at the current instant.
    If an event budget is armed (see {!set_event_budget}) and
    [events_processed] has exceeded it, raises {!Event_budget_exceeded} —
    checked on entry and after the drain, never per event, so the watchdog
    has chunk granularity and zero hot-path cost. *)

exception Event_budget_exceeded of { max_events : int }
(** Raised by {!run_until} (when armed via {!set_event_budget}) once
    the event budget is exhausted — the
    runaway-self-scheduling / poison-sweep-point guard. *)

val set_event_budget : t -> max_events:int -> unit
(** Arm the per-run watchdog: subsequent {!run_until} calls raise
    {!Event_budget_exceeded} once [events_processed] exceeds
    [max_events].  The budget is cleared by {!reset} (simulators are
    arena-reused across runs, so budgets never leak between runs) and is
    measured against events since creation, the last {!reset} or the last
    {!publish_metrics}.  Raises [Invalid_argument] if [max_events < 1]. *)
