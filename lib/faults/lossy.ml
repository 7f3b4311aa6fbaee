type loss_model =
  | No_loss
  | Bernoulli of float
  | Gilbert_elliott of {
      p_good_to_bad : float;
      p_bad_to_good : float;
      loss_good : float;
      loss_bad : float;
    }

let check_prob ~name ?(closed = false) p =
  let ok = p >= 0.0 && (if closed then p <= 1.0 else p < 1.0) in
  if not (ok && not (Float.is_nan p)) then
    invalid_arg (Printf.sprintf "Lossy: %s out of range" name)

let validate_loss = function
  | No_loss -> ()
  | Bernoulli p -> check_prob ~name:"Bernoulli loss probability" p
  | Gilbert_elliott { p_good_to_bad; p_bad_to_good; loss_good; loss_bad } ->
      check_prob ~name:"p_good_to_bad" ~closed:true p_good_to_bad;
      check_prob ~name:"p_bad_to_good" ~closed:true p_bad_to_good;
      check_prob ~name:"loss_good" loss_good;
      check_prob ~name:"loss_bad" loss_bad

let expected_loss_rate = function
  | No_loss -> 0.0
  | Bernoulli p -> p
  | Gilbert_elliott { p_good_to_bad; p_bad_to_good; loss_good; loss_bad } ->
      let denom = p_good_to_bad +. p_bad_to_good in
      if denom = 0.0 then loss_good (* never leaves the initial good state *)
      else
        let pi_bad = p_good_to_bad /. denom in
        ((1.0 -. pi_bad) *. loss_good) +. (pi_bad *. loss_bad)

type t = {
  sim : Desim.Sim.t;
  rng : Prng.Rng.t;
  loss : loss_model;
  dup_prob : float;
  reorder_prob : float;
  reorder_delay : float;
  dest : Netsim.Link.port;
  mutable bad_state : bool;
  mutable offered : int;
  mutable passed : int;
  mutable lost : int;
  mutable duplicated : int;
  mutable reordered : int;
}

let create sim ~rng ?(loss = No_loss) ?(dup_prob = 0.0) ?(reorder_prob = 0.0)
    ?(reorder_delay = 0.005) ~dest () =
  validate_loss loss;
  check_prob ~name:"dup_prob" dup_prob;
  check_prob ~name:"reorder_prob" reorder_prob;
  if not (reorder_delay > 0.0) then
    invalid_arg "Lossy: reorder_delay must be positive";
  {
    sim;
    rng;
    loss;
    dup_prob;
    reorder_prob;
    reorder_delay;
    dest;
    bad_state = false;
    offered = 0;
    passed = 0;
    lost = 0;
    duplicated = 0;
    reordered = 0;
  }

let drops t =
  match t.loss with
  | No_loss -> false
  | Bernoulli p -> Prng.Rng.float t.rng < p
  | Gilbert_elliott { p_good_to_bad; p_bad_to_good; loss_good; loss_bad } ->
      (* Transition first, then draw loss in the new state: a burst starts
         with the packet that finds the channel already bad. *)
      let flip =
        Prng.Rng.float t.rng
        < if t.bad_state then p_bad_to_good else p_good_to_bad
      in
      if flip then t.bad_state <- not t.bad_state;
      Prng.Rng.float t.rng < if t.bad_state then loss_bad else loss_good

let m_lost = Obs.Metrics.counter "faults.lossy.lost"
let m_duplicated = Obs.Metrics.counter "faults.lossy.duplicated"
let m_reordered = Obs.Metrics.counter "faults.lossy.reordered"

let trace_pkt t name extra pkt =
  if Obs.Trace.enabled () then
    Obs.Trace.event ~name ~t:(Desim.Sim.now t.sim)
      (extra
      @ [ ("kind", Obs.Trace.S (Netsim.Packet.kind_to_string pkt.Netsim.Packet.kind)) ])

let deliver t pkt =
  t.passed <- t.passed + 1;
  t.dest pkt

let send t pkt =
  t.offered <- t.offered + 1;
  if drops t then begin
    t.lost <- t.lost + 1;
    Obs.Metrics.incr m_lost;
    trace_pkt t "packet.dropped" [ ("cause", Obs.Trace.S "loss") ] pkt
  end
  else begin
    (if t.reorder_prob > 0.0 && Prng.Rng.float t.rng < t.reorder_prob then begin
       t.reordered <- t.reordered + 1;
       Obs.Metrics.incr m_reordered;
       trace_pkt t "packet.reordered" [] pkt;
       let hold =
         Prng.Rng.float_range t.rng ~lo:0.0 ~hi:t.reorder_delay
         +. (t.reorder_delay *. 1e-9)
       in
       ignore (Desim.Sim.after t.sim ~delay:hold (fun () -> deliver t pkt)
               : Desim.Sim.handle)
     end
     else deliver t pkt);
    if t.dup_prob > 0.0 && Prng.Rng.float t.rng < t.dup_prob then begin
      t.duplicated <- t.duplicated + 1;
      Obs.Metrics.incr m_duplicated;
      trace_pkt t "packet.dup" [] pkt;
      deliver t pkt
    end
  end

let port t = send t
(* talint: allow U001 — tests read it to observe the live wire *)
let offered t = t.offered
(* talint: allow U001 — tests read it to observe the live wire *)
let passed t = t.passed
let lost t = t.lost
(* talint: allow U001 — tests read it to observe the live wire *)
let duplicated t = t.duplicated
(* talint: allow U001 — tests read it to observe the live wire *)
let reordered t = t.reordered

(* talint: allow U001 — tests read it to observe the live wire *)
let loss_rate t =
  if t.offered = 0 then 0.0 else float_of_int t.lost /. float_of_int t.offered
