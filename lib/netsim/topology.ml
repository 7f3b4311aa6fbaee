type cross_spec = {
  rate_pps : float;
  size_bytes : int;
  burst : [ `Poisson | `On_off of float * float * float option ];
}

type hop_spec = {
  bandwidth_bps : float;
  propagation : float;
  queue_limit : int option;
  cross : cross_spec option;
}

type t = {
  entry : Link.port;
  tap : Tap.t;
  routers : Router.t array;
  cross_sources : Traffic_gen.t list;
  sink_count : unit -> int;
}

let start_cross sim ~rng ~spec ~dest =
  match spec.burst with
  | `Poisson ->
      Traffic_gen.poisson sim ~rng ~rate_pps:spec.rate_pps
        ~size_bytes:spec.size_bytes ~kind:Packet.Cross ~dest ()
  | `On_off (mean_on, mean_off, pareto_shape) ->
      (* rate_on is scaled up so the long-run average matches rate_pps. *)
      let duty = mean_on /. (mean_on +. mean_off) in
      Traffic_gen.on_off sim ~rng ~rate_on_pps:(spec.rate_pps /. duty) ~mean_on
        ~mean_off ?pareto_shape ~size_bytes:spec.size_bytes ~kind:Packet.Cross
        ~dest ()

(* Written as [not (x > 0.0)] so a NaN parameter fails too. *)
let validate_cross c =
  if not (c.rate_pps > 0.0) then
    invalid_arg "Topology.chain: cross rate_pps <= 0";
  if not (Float.is_finite c.rate_pps) then
    invalid_arg "Topology.chain: cross rate_pps not finite";
  if c.size_bytes <= 0 then invalid_arg "Topology.chain: cross size_bytes <= 0";
  match c.burst with
  | `Poisson -> ()
  | `On_off (mean_on, mean_off, pareto_shape) -> (
      if not (mean_on > 0.0 && mean_off > 0.0) then
        invalid_arg "Topology.chain: cross on/off period means must be positive";
      (* An infinite OFF mean makes the duty cycle 0 and the ON rate
         infinite: bursts repeat at one instant and the run never ends. *)
      if not (Float.is_finite mean_on && Float.is_finite mean_off) then
        invalid_arg "Topology.chain: cross on/off period means not finite";
      match pareto_shape with
      | Some shape when not (shape > 1.0 && Float.is_finite shape) ->
          invalid_arg "Topology.chain: cross pareto_shape must be finite and > 1"
      | _ -> ())

let validate ~hops ~tap_position =
  if tap_position < 0 || tap_position > Array.length hops then
    invalid_arg "Topology.chain: tap_position out of range";
  Array.iter
    (fun h ->
      Link.validate ~bandwidth_bps:h.bandwidth_bps ~propagation:h.propagation
        ~queue_limit:h.queue_limit;
      Option.iter validate_cross h.cross)
    hops

let cross_streams ~rng hops =
  let streams = Array.make (Array.length hops) None in
  for i = Array.length hops - 1 downto 0 do
    if Option.is_some hops.(i).cross then
      streams.(i) <- Some (Prng.Rng.split rng)
  done;
  streams

let chain sim ~rng ~hops ~tap_position ?tap_buffers ?dest () =
  validate ~hops ~tap_position;
  let n = Array.length hops in
  let streams = cross_streams ~rng hops in
  let make_tap dest = Tap.create sim ?buffers:tap_buffers ~dest () in
  let received = ref 0 in
  let sink pkt =
    if Packet.is_padded pkt then incr received;
    match dest with Some d -> d pkt | None -> ()
  in
  (* Build back to front so each hop knows its downstream port. *)
  let routers = Array.make n None in
  let cross_sources = ref [] in
  let tap = ref None in
  let downstream = ref sink in
  for i = n - 1 downto 0 do
    (* Tap in front of hop i+1 (i.e. after hop i) is installed when we are
       at position i+1 in the walk; handle the "after last hop" spot first. *)
    if tap_position = i + 1 then begin
      let t = make_tap !downstream in
      tap := Some t;
      downstream := Tap.port t
    end;
    let spec = hops.(i) in
    let router =
      Router.create sim ~bandwidth_bps:spec.bandwidth_bps
        ~propagation:spec.propagation ?queue_limit:spec.queue_limit
        ~dest:!downstream ()
    in
    routers.(i) <- Some router;
    (match (spec.cross, streams.(i)) with
    | Some cross, Some rng ->
        cross_sources :=
          start_cross sim ~rng ~spec:cross ~dest:(Router.port router)
          :: !cross_sources
    | _ -> ());
    downstream := Router.port router
  done;
  if tap_position = 0 then begin
    let t = make_tap !downstream in
    tap := Some t;
    downstream := Tap.port t
  end;
  let tap =
    match !tap with
    | Some t -> t
    | None ->
        (* Unreachable: every valid position installs a tap. *)
        assert false
  in
  {
    entry = !downstream;
    tap;
    routers = Array.map Option.get routers;
    cross_sources = !cross_sources;
    sink_count = (fun () -> !received);
  }

let h_utilization = Obs.Metrics.histogram "netsim.link.utilization"

let publish t = Array.iter (fun r -> Link.publish (Router.link r)) t.routers

let stop_cross t =
  (* End-of-run hook for every scenario: fold each hop's lifetime
     utilization and tallies into the registry while the links are still
     in scope. *)
  Array.iter
    (fun r -> Obs.Metrics.observe h_utilization (Link.utilization (Router.link r)))
    t.routers;
  publish t;
  List.iter Traffic_gen.stop t.cross_sources

let note_utilization st ~now =
  Obs.Metrics.observe h_utilization (Linkstage.utilization st ~now)
