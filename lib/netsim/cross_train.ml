(* One pending event at a time: slot 0 of [times] is its time.  Every
   draw lands in slot 2, and the next event's time is the pending one's
   plus the draw, as for an event scheduled that delay after it.  An
   arrival draws the next interarrival.  An on/off train checks the ON
   period's end (slot 1) at each ON event; once it has passed, that event
   draws an OFF period, and the event ending it starts the next ON
   period: its length, then its first interarrival. *)

(* An on/off period law: an exponential of the given rate, or a Pareto. *)
type period = Exponential of float | Pareto of { shape : float; scale : float }

type law = Poisson | On_off of { on : period; off : period }

type t = {
  times : floatarray; (* 0 pending event, 1 end of the ON period, 2 draw *)
  rng : Prng.Rng.t;
  rate : float; (* Poisson rate, or the ON-period rate *)
  law : law;
  mutable starting : bool; (* on/off: the pending event starts an ON period *)
  mutable generated : int;
}

let draw_period t = function
  | Exponential rate -> Prng.Sampler.exponential_into t.rng ~rate t.times 2
  | Pareto { shape; scale } ->
      Float.Array.set t.times 2 (Prng.Sampler.pareto t.rng ~shape ~scale)

let[@inline] advance t =
  Float.Array.set t.times 0
    (Float.Array.get t.times 0 +. Float.Array.get t.times 2)

let[@inline] next_arrival t =
  Prng.Sampler.exponential_into t.rng ~rate:t.rate t.times 2;
  advance t

let start_on t on =
  draw_period t on;
  Float.Array.set t.times 1
    (Float.Array.get t.times 0 +. Float.Array.get t.times 2);
  next_arrival t

let create ~rng ~rate_pps ~burst ~start =
  let train rate law =
    { times = Float.Array.make 3 start; rng; rate; law; starting = false; generated = 0 }
  in
  match burst with
  | `Poisson ->
      let t = train rate_pps Poisson in
      next_arrival t;
      t
  | `On_off (mean_on, mean_off, pareto_shape) ->
      let period mean =
        match pareto_shape with
        | None -> Exponential (1.0 /. mean)
        | Some shape ->
            (* Pareto scale chosen so the mean equals [mean]. *)
            Pareto { shape; scale = mean *. (shape -. 1.0) /. shape }
      in
      let on = period mean_on in
      let duty = mean_on /. (mean_on +. mean_off) in
      let t = train (rate_pps /. duty) (On_off { on; off = period mean_off }) in
      start_on t on;
      t

let times t = t.times

let[@inline] arrival t =
  t.generated <- t.generated + 1;
  next_arrival t;
  true

let step t =
  match t.law with
  | Poisson -> arrival t
  | On_off { on; off } ->
      let now = Float.Array.get t.times 0 in
      let phase_end = Float.Array.get t.times 1 in
      if t.starting then begin
        t.starting <- false;
        start_on t on;
        false
      end
      else if now < phase_end then arrival t
      else begin
        draw_period t off;
        advance t;
        t.starting <- true;
        false
      end

let stop t = Float.Array.set t.times 0 infinity

(* talint: allow U001 — tests read it to count a live train's arrivals *)
let generated t = t.generated
