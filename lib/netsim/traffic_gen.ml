type t = {
  mutable stopped : bool;
  mutable generated : int;
  mutable handle : Desim.Sim.handle option;
  gen : Packet.Id_gen.gen;
}

let stop t =
  t.stopped <- true;
  match t.handle with
  | Some h ->
      Desim.Sim.cancel h;
      t.handle <- None
  | None -> ()

let generated t = t.generated

let emit sim t ~size_bytes ~kind ~dest =
  t.generated <- t.generated + 1;
  dest (Packet.make_gen t.gen ~kind ~size_bytes ~created:(Desim.Sim.now sim))

let source () =
  { stopped = false; generated = 0; handle = None; gen = Packet.Id_gen.create () }

let cbr sim ~rate_pps ~size_bytes ~kind ~dest () =
  if rate_pps <= 0.0 then invalid_arg "Traffic_gen.cbr: rate <= 0";
  let t = source () in
  let period = 1.0 /. rate_pps in
  t.handle <-
    Some
      (Desim.Sim.every sim
         ~interval:(fun () -> period)
         (fun () -> emit sim t ~size_bytes ~kind ~dest));
  t

let poisson sim ~rng ~rate_pps ~size_bytes ~kind ~dest () =
  if rate_pps <= 0.0 then invalid_arg "Traffic_gen.poisson: rate <= 0";
  let t = source () in
  t.handle <-
    Some
      (Desim.Sim.every sim
         ~interval:(fun () -> Prng.Sampler.exponential rng ~rate:rate_pps)
         (fun () -> emit sim t ~size_bytes ~kind ~dest));
  t

let poisson_sized sim ~rng ~rate_pps ~size_of ~kind ~dest () =
  if rate_pps <= 0.0 then invalid_arg "Traffic_gen.poisson_sized: rate <= 0";
  let t = source () in
  t.handle <-
    Some
      (Desim.Sim.every sim
         ~interval:(fun () -> Prng.Sampler.exponential rng ~rate:rate_pps)
         (fun () -> emit sim t ~size_bytes:(size_of rng) ~kind ~dest));
  t

let on_off sim ~rng ~rate_on_pps ~mean_on ~mean_off ?pareto_shape ~size_bytes
    ~kind ~dest () =
  if rate_on_pps <= 0.0 then invalid_arg "Traffic_gen.on_off: rate <= 0";
  if mean_on <= 0.0 || mean_off <= 0.0 then
    invalid_arg "Traffic_gen.on_off: period means must be positive";
  let draw_period mean =
    match pareto_shape with
    | None -> Prng.Sampler.exponential rng ~rate:(1.0 /. mean)
    | Some shape ->
        if shape <= 1.0 then invalid_arg "Traffic_gen.on_off: pareto_shape <= 1";
        (* Pareto scale chosen so the mean equals [mean]. *)
        let scale = mean *. (shape -. 1.0) /. shape in
        Prng.Sampler.pareto rng ~shape ~scale
  in
  let t = source () in
  (* Alternate phases; within ON, Poisson emission until the phase budget
     is exhausted. *)
  let rec start_on () =
    if not t.stopped then begin
      let phase_end = Desim.Sim.now sim +. draw_period mean_on in
      let rec burst () =
        if not t.stopped then begin
          if Desim.Sim.now sim < phase_end then begin
            emit sim t ~size_bytes ~kind ~dest;
            ignore
              (Desim.Sim.after sim
                 ~delay:(Prng.Sampler.exponential rng ~rate:rate_on_pps)
                 burst
                : Desim.Sim.handle)
          end
          else start_off ()
        end
      in
      ignore
        (Desim.Sim.after sim
           ~delay:(Prng.Sampler.exponential rng ~rate:rate_on_pps)
           burst
          : Desim.Sim.handle)
    end
  and start_off () =
    if not t.stopped then
      ignore
        (Desim.Sim.after sim ~delay:(draw_period mean_off) start_on
          : Desim.Sim.handle)
  in
  start_on ();
  t

(* Lewis–Shedler thinning: candidate events at rate_max, accepted with
   probability rate_fn(now)/rate_max.  One reusable event record drives
   the candidate train; acceptance happens in the body.  The draw order
   (interval, then acceptance, from one rng) is part of the reproducible
   stream. *)
let modulated_arrivals sim ~rng ~rate_fn ~rate_max ~f () =
  if rate_max <= 0.0 then
    invalid_arg "Traffic_gen.modulated_arrivals: rate_max <= 0";
  let t = source () in
  t.handle <-
    Some
      (Desim.Sim.every sim
         ~interval:(fun () -> Prng.Sampler.exponential rng ~rate:rate_max)
         (fun () ->
           let now = Desim.Sim.now sim in
           let rate = rate_fn now in
           if rate < 0.0 || rate > rate_max then
             invalid_arg
               "Traffic_gen.modulated_arrivals: rate_fn out of [0, rate_max]";
           if Prng.Rng.float rng < rate /. rate_max then begin
             t.generated <- t.generated + 1;
             f now
           end));
  t
