exception
  Tap_starved of {
    scenario : string;
    target : int;
    observed : int;
    sim_time : float;
    metrics : Obs.Metrics.Snapshot.t;
  }

(* A run is starved when a window worth of [stall_packets] expected
   packets passes without a single new tap observation.  Every caller's
   [expected_rate] is a deliberate under-estimate of the real wire rate,
   so for an alive run the probability of an empty window is about
   exp(-50) — while a blackout is detected after ~50 expected packet
   spacings of simulated time instead of spinning to a chunk budget. *)
let stall_packets = 50.0
let max_chunks = 1_000_000

(* One chunk-loop implementation serves both the event-loop drivers and
   the fused kernels.  The chunk boundaries are data-dependent (each [dt]
   depends on the current tap count), so sharing the arithmetic is what
   guarantees both paths starve at the identical simulated time with the
   identical exception payload. *)
let drive ~scenario ?(slack = 1.1) ?(min_chunk = 0.1) ~now ~count ~advance
    ~on_starve ~target ~expected_rate () =
  let starve observed =
    on_starve ();
    raise
      (Tap_starved
         {
           scenario;
           target;
           observed;
           sim_time = now ();
           metrics = Obs.Metrics.snapshot ();
         })
  in
  let stall_window =
    Float.max (stall_packets /. expected_rate *. slack) (4.0 *. min_chunk)
  in
  let rec go ~chunks ~last_count ~last_progress_t =
    let c = count () in
    let last_progress_t = if c > last_count then now () else last_progress_t in
    if c < target then
      if chunks >= max_chunks || now () -. last_progress_t >= stall_window then
        starve c
      else begin
        let missing = target - c in
        let dt =
          Float.max (float_of_int missing /. expected_rate *. slack) min_chunk
        in
        (* Cap the chunk so a stalled run reaches the window after a
           handful of chunks rather than overshooting it a thousandfold. *)
        let dt = Float.min dt (stall_window /. 4.0) in
        advance (now () +. dt);
        go ~chunks:(chunks + 1) ~last_count:c ~last_progress_t
      end
  in
  go ~chunks:0 ~last_count:(-1) ~last_progress_t:(now ())

let run_until_tap_count ~scenario ?slack ?min_chunk sim ~tap ~publish ~target
    ~expected_rate =
  drive ~scenario ?slack ?min_chunk
    ~now:(fun () -> Desim.Sim.now sim)
    ~count:(fun () -> Netsim.Tap.count tap)
    ~advance:(fun time ->
      try Desim.Sim.run_until sim ~time
      with Desim.Sim.Event_budget_exceeded _ as e ->
        publish ();
        raise e)
    ~on_starve:(fun () ->
      publish ();
      Desim.Sim.publish_metrics sim)
    ~target ~expected_rate ()

let pp_starved ppf = function
  | Tap_starved { scenario; target; observed; sim_time; metrics } ->
      Format.fprintf ppf
        "error: tap starved in %s: observed %d of %d padded packets after \
         %.1f simulated seconds.@.The padding stream is not reaching the \
         tap; metrics at the point of giving up:@.%a@."
        scenario observed target sim_time Obs.Metrics.Snapshot.pp
        (Obs.Metrics.Snapshot.drop_prefix "exec." metrics);
      true
  | _ -> false
