(* Network simulator: link serialization & queueing, router diversion,
   taps, traffic generators, topology wiring, conservation laws. *)

let close ?(tol = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > tol then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let mk_packet ?(kind = Netsim.Packet.Payload) ?(size = 1000) sim =
  Netsim.Packet.make ~kind ~size_bytes:size ~created:(Desim.Sim.now sim)

(* --- Fvec --- *)

let test_fvec () =
  let v = Netsim.Fvec.create ~capacity:2 () in
  Alcotest.(check int) "empty" 0 (Netsim.Fvec.length v);
  for i = 1 to 100 do
    Netsim.Fvec.push v (float_of_int i)
  done;
  Alcotest.(check int) "grown" 100 (Netsim.Fvec.length v);
  close "get" 37.0 (Netsim.Fvec.get v 36);
  Alcotest.(check int) "to_array" 100 (Array.length (Netsim.Fvec.to_array v));
  Alcotest.check_raises "bounds" (Invalid_argument "Fvec.get: index out of range")
    (fun () -> ignore (Netsim.Fvec.get v 100));
  Netsim.Fvec.clear v;
  Alcotest.(check int) "cleared" 0 (Netsim.Fvec.length v)

(* --- Packet --- *)

let test_packet_ids_unique () =
  let sim = Desim.Sim.create () in
  let a = mk_packet sim and b = mk_packet sim in
  Alcotest.(check bool) "distinct ids" true (a.Netsim.Packet.id <> b.Netsim.Packet.id)

let test_packet_kind_predicates () =
  let sim = Desim.Sim.create () in
  Alcotest.(check bool) "payload padded" true
    (Netsim.Packet.is_padded (mk_packet ~kind:Netsim.Packet.Payload sim));
  Alcotest.(check bool) "dummy padded" true
    (Netsim.Packet.is_padded (mk_packet ~kind:Netsim.Packet.Dummy sim));
  Alcotest.(check bool) "cross not padded" false
    (Netsim.Packet.is_padded (mk_packet ~kind:Netsim.Packet.Cross sim));
  Alcotest.(check string) "name" "dummy"
    (Netsim.Packet.kind_to_string Netsim.Packet.Dummy)

let test_packet_invalid_size () =
  Alcotest.check_raises "size" (Invalid_argument "Packet.make: size_bytes <= 0")
    (fun () ->
      ignore (Netsim.Packet.make ~kind:Netsim.Packet.Payload ~size_bytes:0 ~created:0.0))

(* --- Link --- *)

let test_link_serialization_delay () =
  let sim = Desim.Sim.create () in
  let arrivals = ref [] in
  let link =
    Netsim.Link.create sim ~bandwidth_bps:8000.0
      ~dest:(fun _ -> arrivals := Desim.Sim.now sim :: !arrivals)
      ()
  in
  (* 1000 bytes at 8000 bps = 1 s of transmission. *)
  Netsim.Link.send link (mk_packet sim);
  Desim.Sim.run_until sim ~time:10.0;
  Alcotest.(check (list (float 1e-9))) "one packet after 1s" [ 1.0 ] !arrivals

let test_link_fifo_backlog () =
  let sim = Desim.Sim.create () in
  let arrivals = ref [] in
  let link =
    Netsim.Link.create sim ~bandwidth_bps:8000.0
      ~dest:(fun _ -> arrivals := Desim.Sim.now sim :: !arrivals)
      ()
  in
  (* Two back-to-back packets: second waits for the first. *)
  Netsim.Link.send link (mk_packet sim);
  Netsim.Link.send link (mk_packet sim);
  Desim.Sim.run_until sim ~time:10.0;
  Alcotest.(check (list (float 1e-9))) "serialized" [ 2.0; 1.0 ] !arrivals;
  Alcotest.(check int) "sent count" 2 (Netsim.Link.sent link)

let test_link_propagation () =
  let sim = Desim.Sim.create () in
  let arrived = ref 0.0 in
  let link =
    Netsim.Link.create sim ~bandwidth_bps:8000.0 ~propagation:0.5
      ~dest:(fun _ -> arrived := Desim.Sim.now sim)
      ()
  in
  Netsim.Link.send link (mk_packet sim);
  Desim.Sim.run_until sim ~time:10.0;
  close "tx + prop" 1.5 !arrived

let test_link_idle_resets () =
  let sim = Desim.Sim.create () in
  let arrivals = ref [] in
  let link =
    Netsim.Link.create sim ~bandwidth_bps:8000.0
      ~dest:(fun _ -> arrivals := Desim.Sim.now sim :: !arrivals)
      ()
  in
  Netsim.Link.send link (mk_packet sim);
  Desim.Sim.run_until sim ~time:5.0;
  Netsim.Link.send link (mk_packet sim);
  Desim.Sim.run_until sim ~time:10.0;
  Alcotest.(check (list (float 1e-9))) "no carryover backlog" [ 6.0; 1.0 ] !arrivals

let test_link_queue_limit_drops () =
  let sim = Desim.Sim.create () in
  let delivered = ref 0 in
  let link =
    Netsim.Link.create sim ~bandwidth_bps:8000.0 ~queue_limit:2
      ~dest:(fun _ -> incr delivered)
      ()
  in
  for _ = 1 to 5 do
    Netsim.Link.send link (mk_packet sim)
  done;
  Alcotest.(check int) "drops counted" 3 (Netsim.Link.dropped link);
  Desim.Sim.run_until sim ~time:10.0;
  Alcotest.(check int) "survivors delivered" 2 !delivered

let test_link_conservation () =
  (* sent + dropped + in-flight = offered, and after draining in-flight = 0 *)
  let sim = Desim.Sim.create () in
  let rng = Prng.Rng.create ~seed:101 in
  let link =
    Netsim.Link.create sim ~bandwidth_bps:1e6 ~queue_limit:10
      ~dest:(fun _ -> ())
      ()
  in
  let offered = 500 in
  for _ = 1 to offered do
    Desim.Sim.run_until sim
      ~time:(Desim.Sim.now sim +. Prng.Sampler.exponential rng ~rate:100.0);
    Netsim.Link.send link (mk_packet ~size:500 sim)
  done;
  Desim.Sim.run_until sim ~time:(Desim.Sim.now sim +. 10.0);
  Alcotest.(check int) "drained" 0 (Netsim.Link.queue_depth link);
  Alcotest.(check int) "conservation" offered
    (Netsim.Link.sent link + Netsim.Link.dropped link)

let test_link_sustained_overload_conserves () =
  (* Offer ~4x the line rate in bursts for a while: at every instant
     offered = sent + dropped + queued, and the backlog drains to zero
     once the bursts stop. *)
  let sim = Desim.Sim.create () in
  let rng = Prng.Rng.create ~seed:107 in
  let delivered = ref 0 in
  let link =
    Netsim.Link.create sim ~bandwidth_bps:400_000.0 ~queue_limit:16
      ~dest:(fun _ -> incr delivered)
      ()
  in
  let offered = ref 0 in
  for _ = 1 to 2_000 do
    Desim.Sim.run_until sim
      ~time:(Desim.Sim.now sim +. Prng.Sampler.exponential rng ~rate:400.0);
    let burst = 1 + Prng.Rng.int rng ~bound:3 in
    for _ = 1 to burst do
      incr offered;
      Netsim.Link.send link (mk_packet ~size:500 sim)
    done;
    Alcotest.(check int) "conserved mid-overload" !offered
      (Netsim.Link.sent link + Netsim.Link.dropped link
     + Netsim.Link.queue_depth link)
  done;
  Alcotest.(check bool) "overload actually dropped" true
    (Netsim.Link.dropped link > 0);
  Desim.Sim.run_until sim ~time:(Desim.Sim.now sim +. 5.0);
  Alcotest.(check int) "backlog drains" 0 (Netsim.Link.queue_depth link);
  Alcotest.(check int) "all survivors delivered" (Netsim.Link.sent link)
    !delivered;
  Alcotest.(check int) "final conservation" !offered
    (Netsim.Link.sent link + Netsim.Link.dropped link)

let test_link_utilization () =
  let sim = Desim.Sim.create () in
  let link = Netsim.Link.create sim ~bandwidth_bps:8000.0 ~dest:(fun _ -> ()) () in
  Netsim.Link.send link (mk_packet sim);
  (* 1s busy out of 4s elapsed -> 25% *)
  Desim.Sim.run_until sim ~time:4.0;
  close ~tol:0.01 "utilization" 0.25 (Netsim.Link.utilization link)

let test_link_invalid () =
  let sim = Desim.Sim.create () in
  Alcotest.check_raises "bandwidth" (Invalid_argument "Link.create: bandwidth <= 0")
    (fun () ->
      ignore (Netsim.Link.create sim ~bandwidth_bps:0.0 ~dest:(fun _ -> ()) ()))

(* --- Router --- *)

let test_router_diverts_cross () =
  let sim = Desim.Sim.create () in
  let forwarded = ref [] in
  let router =
    Netsim.Router.create sim ~bandwidth_bps:1e9
      ~dest:(fun p -> forwarded := p.Netsim.Packet.kind :: !forwarded)
      ()
  in
  Netsim.Router.port router (mk_packet ~kind:Netsim.Packet.Payload sim);
  Netsim.Router.port router (mk_packet ~kind:Netsim.Packet.Cross sim);
  Netsim.Router.port router (mk_packet ~kind:Netsim.Packet.Dummy sim);
  Desim.Sim.run_until sim ~time:1.0;
  Alcotest.(check int) "padded forwarded" 2 (Netsim.Router.forwarded router);
  Alcotest.(check int) "cross diverted" 1 (Netsim.Router.diverted router);
  Alcotest.(check bool) "no cross in output" true
    (List.for_all (fun k -> k <> Netsim.Packet.Cross) !forwarded)

let test_router_cross_delays_padded () =
  (* The core mechanism of Fig. 6: cross traffic in front of a padded
     packet delays it by the cross packet's transmission time. *)
  let sim = Desim.Sim.create () in
  let arrival = ref 0.0 in
  let router =
    Netsim.Router.create sim ~bandwidth_bps:8000.0
      ~dest:(fun _ -> arrival := Desim.Sim.now sim)
      ()
  in
  Netsim.Router.port router (mk_packet ~kind:Netsim.Packet.Cross sim);
  Netsim.Router.port router (mk_packet ~kind:Netsim.Packet.Payload sim);
  Desim.Sim.run_until sim ~time:10.0;
  close "padded waits behind cross" 2.0 !arrival

(* --- Tap --- *)

let test_tap_records_padded_only () =
  let sim = Desim.Sim.create () in
  let passed = ref 0 in
  let tap = Netsim.Tap.create sim ~dest:(fun _ -> incr passed) () in
  Netsim.Tap.port tap (mk_packet ~kind:Netsim.Packet.Payload sim);
  Netsim.Tap.port tap (mk_packet ~kind:Netsim.Packet.Cross sim);
  Netsim.Tap.port tap (mk_packet ~kind:Netsim.Packet.Dummy sim);
  Alcotest.(check int) "records padded" 2 (Netsim.Tap.count tap);
  Alcotest.(check int) "forwards everything" 3 !passed

let test_tap_piats () =
  let sim = Desim.Sim.create () in
  let tap = Netsim.Tap.create sim ~dest:(fun _ -> ()) () in
  List.iter
    (fun t ->
      ignore
        (Desim.Sim.at sim ~time:t (fun () -> Netsim.Tap.port tap (mk_packet sim))))
    [ 1.0; 2.5; 3.0 ];
  Desim.Sim.run_until sim ~time:5.0;
  let piats () = Netsim.Trace.piats (Netsim.Tap.timestamps tap) in
  Alcotest.(check (array (float 1e-9))) "diffs" [| 1.5; 0.5 |] (piats ())

(* --- Traffic generators --- *)

let test_cbr_rate () =
  let sim = Desim.Sim.create () in
  let count = ref 0 in
  let gen =
    Netsim.Traffic_gen.cbr sim ~rate_pps:10.0 ~size_bytes:100
      ~kind:Netsim.Packet.Payload ~dest:(fun _ -> incr count) ()
  in
  Desim.Sim.run_until sim ~time:10.0;
  Alcotest.(check int) "100 packets in 10s" 100 !count;
  Alcotest.(check int) "generated counter" 100 (Netsim.Traffic_gen.generated gen);
  Netsim.Traffic_gen.stop gen;
  Desim.Sim.run_until sim ~time:20.0;
  Alcotest.(check int) "stopped" 100 !count

let test_poisson_rate_and_iid () =
  let sim = Desim.Sim.create () in
  let rng = Prng.Rng.create ~seed:102 in
  let times = ref [] in
  let _gen =
    Netsim.Traffic_gen.poisson sim ~rng ~rate_pps:50.0 ~size_bytes:100
      ~kind:Netsim.Packet.Cross
      ~dest:(fun _ -> times := Desim.Sim.now sim :: !times)
      ()
  in
  Desim.Sim.run_until sim ~time:100.0;
  let n = List.length !times in
  Alcotest.(check bool) "rate ~ 50pps" true (n > 4500 && n < 5500);
  (* Interarrivals should pass a KS test against Exp(50). *)
  let ts = Array.of_list (List.rev !times) in
  let piats = Array.init (Array.length ts - 1) (fun i -> ts.(i + 1) -. ts.(i)) in
  let cdf x = if x <= 0.0 then 0.0 else 1.0 -. exp (-50.0 *. x) in
  let res = Stats.Hypothesis.ks_test piats ~cdf in
  Alcotest.(check bool) "exponential interarrivals" true
    (res.Stats.Hypothesis.p_value > 0.001)

let test_on_off_average_rate () =
  let sim = Desim.Sim.create () in
  let rng = Prng.Rng.create ~seed:103 in
  let count = ref 0 in
  let _gen =
    Netsim.Traffic_gen.on_off sim ~rng ~rate_on_pps:100.0 ~mean_on:0.5
      ~mean_off:0.5 ~size_bytes:100 ~kind:Netsim.Packet.Cross
      ~dest:(fun _ -> incr count)
      ()
  in
  Desim.Sim.run_until sim ~time:200.0;
  (* duty 0.5 -> ~50 pps average *)
  let rate = float_of_int !count /. 200.0 in
  Alcotest.(check bool) "average rate ~ 50" true (rate > 40.0 && rate < 60.0)

let test_on_off_burstier_than_poisson () =
  let piat_cv source_seed on_off =
    let sim = Desim.Sim.create () in
    let rng = Prng.Rng.create ~seed:source_seed in
    let times = Netsim.Fvec.create () in
    let dest _ = Netsim.Fvec.push times (Desim.Sim.now sim) in
    let _gen =
      if on_off then
        Netsim.Traffic_gen.on_off sim ~rng ~rate_on_pps:200.0 ~mean_on:0.2
          ~mean_off:0.8 ~size_bytes:100 ~kind:Netsim.Packet.Cross ~dest ()
      else
        Netsim.Traffic_gen.poisson sim ~rng ~rate_pps:40.0 ~size_bytes:100
          ~kind:Netsim.Packet.Cross ~dest ()
    in
    Desim.Sim.run_until sim ~time:300.0;
    let ts = Netsim.Fvec.to_array times in
    let piats = Array.init (Array.length ts - 1) (fun i -> ts.(i + 1) -. ts.(i)) in
    Stats.Descriptive.std piats /. Stats.Descriptive.mean piats
  in
  let cv_poisson = piat_cv 104 false and cv_onoff = piat_cv 105 true in
  Alcotest.(check bool) "on/off has higher CV" true (cv_onoff > cv_poisson *. 1.2)

let test_modulated_arrivals_track_rate () =
  let sim = Desim.Sim.create () in
  let rng = Prng.Rng.create ~seed:106 in
  let early = ref 0 and late = ref 0 in
  let _gen =
    Netsim.Traffic_gen.modulated_arrivals sim ~rng
      ~rate_fn:(fun t -> if t < 100.0 then 10.0 else 100.0)
      ~rate_max:100.0
      ~f:(fun now -> if now < 100.0 then incr early else incr late)
      ()
  in
  Desim.Sim.run_until sim ~time:200.0;
  Alcotest.(check bool) "early ~ 1000" true (!early > 700 && !early < 1300);
  Alcotest.(check bool) "late ~ 10000" true (!late > 9000 && !late < 11000)

(* --- Topology --- *)

let lab_hop ?(cross_rate = 0.0) () =
  {
    Netsim.Topology.bandwidth_bps = 1e8;
    propagation = 0.0;
    queue_limit = None;
    cross =
      (if cross_rate > 0.0 then
         Some
           {
             Netsim.Topology.rate_pps = cross_rate;
             size_bytes = 500;
             burst = `Poisson;
           }
       else None);
  }

let test_chain_delivery_and_tap () =
  let sim = Desim.Sim.create () in
  let rng = Prng.Rng.create ~seed:107 in
  let topo =
    Netsim.Topology.chain sim ~rng
      ~hops:[| lab_hop (); lab_hop () |]
      ~tap_position:1 ()
  in
  for _ = 1 to 10 do
    topo.Netsim.Topology.entry (mk_packet ~size:500 sim);
    Desim.Sim.run_until sim ~time:(Desim.Sim.now sim +. 0.01)
  done;
  Desim.Sim.run_until sim ~time:(Desim.Sim.now sim +. 1.0);
  Alcotest.(check int) "tap saw all" 10 (Netsim.Tap.count topo.Netsim.Topology.tap);
  Alcotest.(check int) "sink got all" 10 (topo.Netsim.Topology.sink_count ())

let test_chain_cross_does_not_reach_sink () =
  let sim = Desim.Sim.create () in
  let rng = Prng.Rng.create ~seed:108 in
  let cross_seen_at_dest = ref 0 in
  let topo =
    Netsim.Topology.chain sim ~rng
      ~hops:[| lab_hop ~cross_rate:1000.0 () |]
      ~tap_position:1
      ~dest:(fun p ->
        if p.Netsim.Packet.kind = Netsim.Packet.Cross then incr cross_seen_at_dest)
      ()
  in
  topo.Netsim.Topology.entry (mk_packet ~size:500 sim);
  Desim.Sim.run_until sim ~time:2.0;
  Alcotest.(check int) "cross diverted before dest" 0 !cross_seen_at_dest;
  Alcotest.(check bool) "cross flowed" true
    (List.exists
       (fun g -> Netsim.Traffic_gen.generated g > 0)
       topo.Netsim.Topology.cross_sources);
  Netsim.Topology.stop_cross topo

let test_chain_tap_positions_valid () =
  let sim = Desim.Sim.create () in
  let rng = Prng.Rng.create ~seed:109 in
  Alcotest.check_raises "out of range"
    (Invalid_argument "Topology.chain: tap_position out of range") (fun () ->
      ignore
        (Netsim.Topology.chain sim ~rng ~hops:[| lab_hop () |] ~tap_position:2 ()));
  (* position 0 and hops=[||] is the gateway-tap degenerate chain *)
  let topo = Netsim.Topology.chain sim ~rng ~hops:[||] ~tap_position:0 () in
  topo.Netsim.Topology.entry (mk_packet sim);
  Desim.Sim.run_until sim ~time:1.0;
  Alcotest.(check int) "tap at entry" 1 (Netsim.Tap.count topo.Netsim.Topology.tap)

(* --- Departures that get no event --- *)

let gauge name =
  match Obs.Metrics.Snapshot.find (Obs.Metrics.snapshot ()) name with
  | Some (Obs.Metrics.Snapshot.Gauge g) -> g
  | _ -> Alcotest.fail ("no gauge " ^ name)

(* A padded send lands exactly on a cross packet's departure.  1000 bytes
   at 8000 b/s take 1 s, so the cross packet sent at 0 leaves at 1.0,
   where the padded send is scheduled either before the cross send (its
   event pops first: the cross packet still holds the queue) or after it
   (the departure pops first).  The cross packet has no departure event;
   it must settle in the order its event would have popped.  The
   outcomes are the ones an event per departure gives. *)
let test_router_exit_tie_order () =
  let run ?queue_limit ~padded_first () =
    Obs.Metrics.reset ();
    let sim = Desim.Sim.create () in
    let router =
      Netsim.Router.create sim ~bandwidth_bps:8000.0 ?queue_limit
        ~dest:(fun _ -> ())
        ()
    in
    let send kind () = Netsim.Router.port router (mk_packet ~kind sim) in
    let schedule_padded () =
      ignore
        (Desim.Sim.at sim ~time:1.0 (send Netsim.Packet.Payload)
          : Desim.Sim.handle)
    in
    if padded_first then begin
      schedule_padded ();
      send Netsim.Packet.Cross ()
    end
    else begin
      send Netsim.Packet.Cross ();
      schedule_padded ()
    end;
    Desim.Sim.run_until sim ~time:10.0;
    let link = Netsim.Router.link router in
    Netsim.Link.publish link;
    ( Netsim.Link.dropped link,
      Netsim.Router.forwarded router,
      Netsim.Router.diverted router,
      gauge "netsim.link.queue_hwm" )
  in
  let outcome = Alcotest.(pair (pair int int) (pair int (float 0.0))) in
  let check name expected (dropped, forwarded, diverted, hwm) =
    Alcotest.check outcome name expected ((dropped, forwarded), (diverted, hwm))
  in
  check "queue limit 1, padded first: dropped" ((1, 0), (1, 1.0))
    (run ~queue_limit:1 ~padded_first:true ());
  check "queue limit 1, cross first: accepted" ((0, 1), (1, 1.0))
    (run ~queue_limit:1 ~padded_first:false ());
  check "unbounded, padded first: queue high-water mark 2" ((0, 1), (1, 2.0))
    (run ~padded_first:true ());
  check "unbounded, cross first: queue high-water mark 1" ((0, 1), (1, 1.0))
    (run ~padded_first:false ())

(* The far-end exit of a cross packet (one propagation delay after its
   finish) settles in event order too: a read at exactly that instant
   sees it only when the reader was scheduled after the cross send. *)
let test_router_exit_tie_propagation () =
  let read_at_exit ~reader_first =
    let sim = Desim.Sim.create () in
    let router =
      Netsim.Router.create sim ~bandwidth_bps:8000.0 ~propagation:0.5
        ~dest:(fun _ -> ())
        ()
    in
    let seen = ref (-1, -1) in
    let schedule_reader () =
      ignore
        (Desim.Sim.at sim ~time:1.5 (fun () ->
             seen :=
               ( Netsim.Router.diverted router,
                 Netsim.Link.sent (Netsim.Router.link router) ))
          : Desim.Sim.handle)
    in
    let cross () =
      Netsim.Router.port router (mk_packet ~kind:Netsim.Packet.Cross sim)
    in
    if reader_first then begin
      schedule_reader ();
      cross ()
    end
    else begin
      cross ();
      schedule_reader ()
    end;
    Desim.Sim.run_until sim ~time:10.0;
    !seen
  in
  Alcotest.(check (pair int int)) "reader first: not yet exited" (0, 1)
    (read_at_exit ~reader_first:true);
  Alcotest.(check (pair int int)) "reader second: exited" (1, 1)
    (read_at_exit ~reader_first:false)

(* A cross packet costs the event loop one event, its arrival, with or
   without propagation delay on its hop. *)
let test_cross_one_event_per_packet () =
  List.iter
    (fun propagation ->
      let name = Printf.sprintf "propagation %g" propagation in
      let sim = Desim.Sim.create () in
      let rng = Prng.Rng.create ~seed:110 in
      let hop = { (lab_hop ~cross_rate:2000.0 ()) with propagation } in
      let topo =
        Netsim.Topology.chain sim ~rng ~hops:[| hop |] ~tap_position:1 ()
      in
      Desim.Sim.run_until sim ~time:5.0;
      let generated =
        List.fold_left
          (fun acc g -> acc + Netsim.Traffic_gen.generated g)
          0 topo.Netsim.Topology.cross_sources
      in
      Alcotest.(check bool) (name ^ ": cross flowed") true (generated > 5000);
      Alcotest.(check int)
        (name ^ ": one event per cross packet")
        generated
        (Desim.Sim.events_processed sim);
      Netsim.Topology.stop_cross topo;
      Desim.Sim.run_until sim ~time:6.0;
      let router = topo.Netsim.Topology.routers.(0) in
      Alcotest.(check int) (name ^ ": all diverted") generated
        (Netsim.Router.diverted router);
      Alcotest.(check int) (name ^ ": all sent") generated
        (Netsim.Link.sent (Netsim.Router.link router));
      Alcotest.(check int) (name ^ ": queue drained") 0
        (Netsim.Link.queue_depth (Netsim.Router.link router)))
    [ 0.0; 0.002 ]

let suite =
  [
    Alcotest.test_case "fvec" `Quick test_fvec;
    Alcotest.test_case "packet ids unique" `Quick test_packet_ids_unique;
    Alcotest.test_case "packet kinds" `Quick test_packet_kind_predicates;
    Alcotest.test_case "packet invalid size" `Quick test_packet_invalid_size;
    Alcotest.test_case "link serialization" `Quick test_link_serialization_delay;
    Alcotest.test_case "link FIFO backlog" `Quick test_link_fifo_backlog;
    Alcotest.test_case "link propagation" `Quick test_link_propagation;
    Alcotest.test_case "link idles" `Quick test_link_idle_resets;
    Alcotest.test_case "link queue limit" `Quick test_link_queue_limit_drops;
    Alcotest.test_case "link conservation" `Quick test_link_conservation;
    Alcotest.test_case "link sustained overload" `Quick
      test_link_sustained_overload_conserves;
    Alcotest.test_case "link utilization" `Quick test_link_utilization;
    Alcotest.test_case "link invalid" `Quick test_link_invalid;
    Alcotest.test_case "router diverts cross" `Quick test_router_diverts_cross;
    Alcotest.test_case "cross delays padded" `Quick test_router_cross_delays_padded;
    Alcotest.test_case "tap records padded only" `Quick test_tap_records_padded_only;
    Alcotest.test_case "tap piats" `Quick test_tap_piats;
    Alcotest.test_case "cbr rate" `Quick test_cbr_rate;
    Alcotest.test_case "poisson rate + iid" `Quick test_poisson_rate_and_iid;
    Alcotest.test_case "on/off average rate" `Quick test_on_off_average_rate;
    Alcotest.test_case "on/off burstier" `Quick test_on_off_burstier_than_poisson;
    Alcotest.test_case "modulated poisson" `Quick test_modulated_arrivals_track_rate;
    Alcotest.test_case "chain delivery + tap" `Quick test_chain_delivery_and_tap;
    Alcotest.test_case "chain diverts cross" `Quick test_chain_cross_does_not_reach_sink;
    Alcotest.test_case "chain tap positions" `Quick test_chain_tap_positions_valid;
    Alcotest.test_case "cross exit: tie order at a padded send" `Quick
      test_router_exit_tie_order;
    Alcotest.test_case "cross exit: tie order at the far end" `Quick
      test_router_exit_tie_propagation;
    Alcotest.test_case "cross exit: one event per cross packet" `Quick
      test_cross_one_event_per_packet;
  ]
