type t = {
  sim : Desim.Sim.t;
  dest : Netsim.Packet.t -> unit;
  latency : Stats.Descriptive.Acc.t;
  mutable payload_received : int;
  mutable dummy_received : int;
}

let create sim ?(dest = fun (_ : Netsim.Packet.t) -> ()) () =
  {
    sim;
    dest;
    latency = Stats.Descriptive.Acc.create ();
    payload_received = 0;
    dummy_received = 0;
  }

let port t pkt =
  match pkt.Netsim.Packet.kind with
  | Netsim.Packet.Dummy -> t.dummy_received <- t.dummy_received + 1
  | Netsim.Packet.Payload ->
      t.payload_received <- t.payload_received + 1;
      Stats.Descriptive.Acc.add t.latency
        (Desim.Sim.now t.sim -. pkt.Netsim.Packet.created);
      t.dest pkt
  | Netsim.Packet.Cross ->
      invalid_arg "Receiver.port: cross packet reached the receiver gateway"

let payload_received t = t.payload_received
(* talint: allow U001 — tests read it to observe the live receiver *)
let dummy_received t = t.dummy_received

let mean_payload_latency t = Stats.Descriptive.Acc.mean t.latency

(* talint: allow U001 — tests read it to observe the live receiver *)
let max_payload_latency t =
  if Stats.Descriptive.Acc.count t.latency = 0 then 0.0
  else Stats.Descriptive.Acc.max t.latency
