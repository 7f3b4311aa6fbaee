(** Tap-starvation detection shared by the scenario drivers.

    A scenario advances its simulation in chunks until the tap has
    observed a target number of padded packets.  Under extreme fault
    profiles (a permanent outage, a gateway that never restarts) the tap
    stops filling and the chunk loop would otherwise spin to its budget
    and abort with a bare [Failure].  Instead the loop watches for
    progress and raises {!Tap_starved} carrying the full metrics
    snapshot, so the caller (and the operator reading the CLI error) can
    see {e which} stage of the pipeline ate the traffic. *)

exception
  Tap_starved of {
    scenario : string;  (** driver name, e.g. ["degradation.run"] *)
    target : int;  (** padded packets the driver needed *)
    observed : int;  (** padded packets the tap actually saw *)
    sim_time : float;  (** simulated seconds at the point of giving up *)
    metrics : Obs.Metrics.Snapshot.t;
        (** registry snapshot taken at the point of giving up *)
  }

val drive :
  scenario:string ->
  ?slack:float ->
  ?min_chunk:float ->
  now:(unit -> float) ->
  count:(unit -> int) ->
  advance:(float -> unit) ->
  on_starve:(unit -> unit) ->
  target:int ->
  expected_rate:float ->
  unit ->
  unit
(** The chunk loop behind {!run_until_tap_count}, abstracted over how
    time is read ([now]), how progress is measured ([count]), and how the
    simulation advances to a chunk boundary ([advance]).  The fused
    scenario kernels drive their batch loops through this so the
    data-dependent chunk boundaries — and therefore the starvation
    decision and its simulated timestamp — are computed by the very same
    arithmetic as the event-loop path.  [on_starve] runs (e.g. to flush
    pending metric tallies) just before {!Tap_starved} is raised, so the
    snapshot in the exception reflects the flushed state. *)

val run_until_tap_count :
  scenario:string ->
  ?slack:float ->
  ?min_chunk:float ->
  Desim.Sim.t ->
  tap:Netsim.Tap.t ->
  publish:(unit -> unit) ->
  target:int ->
  expected_rate:float ->
  unit
(** Advance [sim] in chunks sized [missing / expected_rate * slack]
    (at least [min_chunk] seconds) until the tap holds [target]
    timestamps.  Raises {!Tap_starved} when the chunk budget runs out or
    the tap makes no progress for many consecutive chunks; raises
    [Desim.Sim.Event_budget_exceeded] when a supervisor-armed event
    budget trips first.  [publish] flushes the run's components that
    count locally (a chain's links, {!Netsim.Topology.publish}) on both
    raising paths, before the simulator's own tallies on starving. *)

val pp_starved : Format.formatter -> exn -> bool
(** Render a {!Tap_starved} exception as an operator-facing report
    (headline plus the non-[exec.] metrics snapshot); [false] when the
    exception is anything else. *)
