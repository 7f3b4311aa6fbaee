type spec = {
  drift : float;
  miss_prob : float;
  coalesce : bool;
  max_consecutive_misses : int;
}

let ideal =
  { drift = 0.0; miss_prob = 0.0; coalesce = true; max_consecutive_misses = 1 }

let validate spec =
  if Float.is_nan spec.drift || spec.drift <= -1.0 then
    invalid_arg "Clock: drift must be > -1";
  if
    Float.is_nan spec.miss_prob || spec.miss_prob < 0.0
    || spec.miss_prob >= 1.0
  then invalid_arg "Clock: miss_prob must be in [0, 1)";
  if spec.max_consecutive_misses < 1 then
    invalid_arg "Clock: max_consecutive_misses < 1"

let catchup_spacing = 1e-6

let m_missed = Obs.Metrics.counter "faults.clock.missed_fires"

let trace ?sim name =
  match sim with
  | Some s when Obs.Trace.enabled () ->
      Obs.Trace.event ~name ~t:(Desim.Sim.now s) []
  | Some _ | None -> ()

let intervals ?sim spec ~law ~rng =
  validate spec;
  Padding.Timer.validate law;
  let pending_catchup = ref 0 in
  let timer = Padding.Timer.sampler law and slot = Float.Array.make 1 0.0 in
  let draw () =
    Padding.Timer.draw_into timer rng slot 0;
    Float.Array.get slot 0 *. (1.0 +. spec.drift)
  in
  fun () ->
    if !pending_catchup > 0 then begin
      decr pending_catchup;
      trace ?sim "timer.catchup";
      catchup_spacing
    end
    else begin
      let span = ref (draw ()) in
      let missed = ref 0 in
      while
        !missed < spec.max_consecutive_misses
        && spec.miss_prob > 0.0
        && Prng.Rng.float rng < spec.miss_prob
      do
        (* This period's fire is masked; the train only reaches the wire
           one (drifted) period later. *)
        incr missed;
        Obs.Metrics.incr m_missed;
        trace ?sim "timer.miss";
        span := !span +. draw ()
      done;
      if (not spec.coalesce) && !missed > 0 then pending_catchup := !missed;
      !span
    end
