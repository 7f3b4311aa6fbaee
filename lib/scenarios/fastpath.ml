(* Fused-kernel fast path for [System.run].

   Eligible runs — Poisson payload, chain topology whose cross traffic
   is absent or Poisson, no fault injectors (faulted scenarios use their
   own drivers) — execute as a staged batch pipeline instead of
   discrete-event simulation: [Padding.Kernel] plays the gateway,
   one [Netsim.Linkstage] per hop plays link+router+cross source, and
   this module plays topology glue, tap, receiver and chunk loop.  It
   keeps no copy of a rule the event loop runs: the chain check and the
   cross streams come from [Netsim.Topology], the event budget from
   [Exec.Supervise], the chunk boundaries from [Starvation.drive], and the
   metrics go out through the batch functions of the modules that own
   them.  So both paths reject the same configs and starve, stop and
   budget-trip at identical simulated times.

   Everything observable is buffered stage-locally during the run and
   flushed transactionally: registry counters as batched adds, the
   ta-trace/1 stream as a replay of the per-stage deferred buffers (in
   any order: [Obs.Trace] sorts each run by time).  If any stage hits an
   exact time tie it cannot order, nothing has been published yet —
   [try_run] returns [None] and the caller reruns the config on the
   event loop, whose (time, seq) queue order resolves the tie
   authoritatively. *)

let enabled_flag = Atomic.make true
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

type fallback = Disabled | Cbr_payload | Onoff_cross | Tie

let m_runs = Obs.Metrics.counter "desim.kernel.runs"

let m_fb_disabled =
  Obs.Metrics.counter_labeled "desim.kernel.fallbacks"
    ~label:("reason", "disabled")

let m_fb_cbr =
  Obs.Metrics.counter_labeled "desim.kernel.fallbacks"
    ~label:("reason", "cbr_payload")

let m_fb_onoff =
  Obs.Metrics.counter_labeled "desim.kernel.fallbacks"
    ~label:("reason", "onoff_cross")

let m_fb_tie =
  Obs.Metrics.counter_labeled "desim.kernel.fallbacks" ~label:("reason", "tie")

let note_fallback reason =
  Obs.Metrics.incr
    (match reason with
    | Disabled -> m_fb_disabled
    | Cbr_payload -> m_fb_cbr
    | Onoff_cross -> m_fb_onoff
    | Tie -> m_fb_tie)

let eligible_hops hops =
  Array.for_all
    (fun (h : Netsim.Topology.hop_spec) ->
      match h.Netsim.Topology.cross with
      | None -> true
      | Some c -> c.Netsim.Topology.burst = `Poisson)
    hops

type outcome = {
  tap_times : Netsim.Fvec.t;
  overhead : float;
  payload_offered : int;
  payload_delivered : int;
  mean_payload_latency : float;
  sim_time : float;
}

let try_run ~fresh_arena ~scenario ~rng_payload ~rng_gateway ~rng_cross ~timer
    ~jitter ~payload_rate_pps ~packet_size ~hops ~tap_position ~target
    ~expected_rate =
  Netsim.Topology.validate ~hops ~tap_position;
  let n = Array.length hops in
  let arena = Arena.get ~fresh:fresh_arena in
  let sim = arena.Arena.sim in
  Exec.Supervise.arm_event_budget sim;
  let cross_streams = Netsim.Topology.cross_streams ~rng:rng_cross hops in
  let kgw = arena.Arena.kernel_gw in
  Padding.Kernel.configure kgw ~rng_payload ~rng_gateway ~timer ~jitter
    ~packet_size ~payload_rate:payload_rate_pps;
  let stages = Arena.kernel_hops arena n in
  let in_t = ref (Padding.Kernel.out_times kgw) in
  let in_tag = ref (Padding.Kernel.out_tags kgw) in
  for i = 0 to n - 1 do
    let h = hops.(i) in
    let cross =
      match (h.Netsim.Topology.cross, cross_streams.(i)) with
      | Some c, Some rng ->
          Some (rng, c.Netsim.Topology.rate_pps, c.Netsim.Topology.size_bytes)
      | _ -> None
    in
    Netsim.Linkstage.configure stages.(i)
      ~bandwidth_bps:h.Netsim.Topology.bandwidth_bps
      ~propagation:h.Netsim.Topology.propagation
      ~queue_limit:h.Netsim.Topology.queue_limit ~packet_size ~cross
      ~in_t:!in_t ~in_tag:!in_tag;
    in_t := Netsim.Linkstage.out_times stages.(i);
    in_tag := Netsim.Linkstage.out_tags stages.(i)
  done;
  (* Inline tap and receiver state.  The stage vectors are read in
     place: [Fvec.unsafe_get] would box every float it returns. *)
  let tap_times = arena.Arena.tap_times in
  Netsim.Fvec.clear tap_times;
  Netsim.Tracebuf.clear arena.Arena.kernel_tap_trace;
  let tap_dummy = ref 0 in
  let receiver = Padding.Receiver.create sim () in
  let size_f = float_of_int packet_size in
  let absorb_tap (times : Netsim.Fvec.t) (tags : Netsim.Fvec.t) =
    for i = 0 to tags.len - 1 do
      if Float.is_nan (Array.unsafe_get tags.data i) then incr tap_dummy
    done;
    if Obs.Trace.enabled () then
      for i = 0 to times.len - 1 do
        Netsim.Tracebuf.push arena.Arena.kernel_tap_trace
          ~time:times.data.(i)
          ~code:
            (if Float.is_nan tags.data.(i) then Netsim.Tracebuf.observe_dummy
             else Netsim.Tracebuf.observe_payload)
          ~x:size_f
      done;
    Netsim.Fvec.append tap_times times
  in
  (* Event-queue-depth surrogate for the desim.queue_hwm gauge: the two
     periodic source records plus one per cross source, plus the pending
     emission / in-flight transmission high-water marks.  Deterministic
     per config (jobs-invariant) but NOT the event loop's exact
     interleaved depth; excluded from the differential contract. *)
  let n_cross =
    Array.fold_left
      (fun acc (h : Netsim.Topology.hop_spec) ->
        if h.Netsim.Topology.cross = None then acc else acc + 1)
      0 hops
  in
  let queue_hwm_surrogate () =
    let acc = ref (2 + n_cross + Padding.Kernel.max_pending kgw) in
    for i = 0 to n - 1 do
      acc := !acc + Netsim.Linkstage.max_pending stages.(i)
    done;
    !acc
  in
  let flush ~with_utilization ~publish ~now =
    if Obs.Trace.enabled () then begin
      Netsim.Tracebuf.replay (Padding.Kernel.trace kgw);
      Netsim.Tracebuf.replay arena.Arena.kernel_tap_trace;
      for i = 0 to n - 1 do
        Netsim.Tracebuf.replay (Netsim.Linkstage.trace stages.(i))
      done
    end;
    Padding.Gateway.note_batch kgw;
    for i = 0 to n - 1 do
      Netsim.Link.note_batch stages.(i)
    done;
    if with_utilization then
      (* Topology.stop_cross observes every router, in chain order. *)
      for i = 0 to n - 1 do
        Netsim.Topology.note_utilization stages.(i) ~now
      done;
    let observed = tap_times.Netsim.Fvec.len in
    Netsim.Tap.note_batch ~observed ~payload:(observed - !tap_dummy)
      ~dummy:!tap_dummy;
    if publish then Desim.Sim.publish_metrics sim
  in
  let advance until =
    Padding.Kernel.advance kgw ~until;
    let events = ref (Padding.Kernel.chunk_events kgw) in
    if tap_position = 0 then
      absorb_tap (Padding.Kernel.out_times kgw) (Padding.Kernel.out_tags kgw);
    for i = 0 to n - 1 do
      Netsim.Linkstage.advance stages.(i) ~until;
      events := !events + Netsim.Linkstage.chunk_events stages.(i);
      if tap_position = i + 1 then
        absorb_tap
          (Netsim.Linkstage.out_times stages.(i))
          (Netsim.Linkstage.out_tags stages.(i))
    done;
    (if n = 0 then
       Padding.Receiver.absorb receiver (Padding.Kernel.out_times kgw)
         (Padding.Kernel.out_tags kgw)
     else
       Padding.Receiver.absorb receiver
         (Netsim.Linkstage.out_times stages.(n - 1))
         (Netsim.Linkstage.out_tags stages.(n - 1)));
    Desim.Sim.account_external sim ~events:!events
      ~queue_hwm:(queue_hwm_surrogate ());
    (* Advances the clock to the chunk boundary and enforces the event
       budget with the event loop's chunk granularity and totals.  On a
       budget trip, flush what the event loop would already have
       published incrementally (no [publish_metrics] — the event loop
       does not publish on this path either), then re-raise. *)
    try Desim.Sim.run_until sim ~time:until
    with Desim.Sim.Event_budget_exceeded _ as e ->
      flush ~with_utilization:false ~publish:false ~now:(Desim.Sim.now sim);
      raise e
  in
  try
    Starvation.drive ~scenario ~slack:1.1 ~min_chunk:0.1
      ~now:(fun () -> Desim.Sim.now sim)
      ~count:(fun () -> Netsim.Fvec.length tap_times)
      ~advance
      ~on_starve:(fun () ->
        (* The event loop's starve path never reaches stop_cross, so no
           utilization observations — flush everything else. *)
        flush ~with_utilization:false ~publish:true ~now:(Desim.Sim.now sim))
      ~target ~expected_rate ();
    let now = Desim.Sim.now sim in
    flush ~with_utilization:true ~publish:true ~now;
    Obs.Metrics.incr m_runs;
    Some
      {
        tap_times;
        overhead = Padding.Kernel.overhead kgw;
        payload_offered = Padding.Kernel.generated kgw;
        payload_delivered = Padding.Receiver.payload_received receiver;
        mean_payload_latency = Padding.Receiver.mean_payload_latency receiver;
        sim_time = now;
      }
  with Padding.Kernel.Tie | Netsim.Linkstage.Tie ->
    (* Nothing was published before the tie was detected; the caller
       reruns the config on the event loop. *)
    None
