type t = {
  sim : Desim.Sim.t;
  dest : Netsim.Packet.t -> unit;
  (* Payload creation-to-delivery latency: 0 the running mean, 1 the
     maximum.  In a floatarray, so [absorb]'s fold boxes nothing. *)
  latency : floatarray;
  mutable payload_received : int;
  mutable dummy_received : int;
}

let create sim ?(dest = fun (_ : Netsim.Packet.t) -> ()) () =
  {
    sim;
    dest;
    latency = Float.Array.of_list [ 0.0; Float.neg_infinity ];
    payload_received = 0;
    dummy_received = 0;
  }

(* The receiver-latency mean: Welford's step, the float operations
   [Stats.Descriptive.Acc.add] makes for its mean, so the mean is
   bit-equal to an [Acc]'s over the same latencies. *)
let[@inline] receive_payload t latency =
  t.payload_received <- t.payload_received + 1;
  let mean = Float.Array.get t.latency 0 in
  let max = Float.Array.get t.latency 1 in
  Float.Array.set t.latency 0
    (mean +. ((latency -. mean) /. float_of_int t.payload_received));
  if latency > max then Float.Array.set t.latency 1 latency

let port t pkt =
  match pkt.Netsim.Packet.kind with
  | Netsim.Packet.Dummy -> t.dummy_received <- t.dummy_received + 1
  | Netsim.Packet.Payload ->
      receive_payload t (Desim.Sim.now t.sim -. pkt.Netsim.Packet.created);
      t.dest pkt
  | Netsim.Packet.Cross ->
      invalid_arg "Receiver.port: cross packet reached the receiver gateway"

let absorb t (times : Netsim.Fvec.t) (tags : Netsim.Fvec.t) =
  for i = 0 to times.len - 1 do
    let tag = Array.unsafe_get tags.data i in
    if Float.is_nan tag then t.dummy_received <- t.dummy_received + 1
    else receive_payload t (Array.unsafe_get times.data i -. tag)
  done

let payload_received t = t.payload_received
(* talint: allow U001 — tests read it to observe the live receiver *)
let dummy_received t = t.dummy_received

let mean_payload_latency t = Float.Array.get t.latency 0

(* talint: allow U001 — tests read it to observe the live receiver *)
let max_payload_latency t =
  if t.payload_received = 0 then 0.0 else Float.Array.get t.latency 1
