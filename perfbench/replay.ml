(* Kernel-stage replay.

   Re-executes one kernel-path [System.run] configuration by calling the
   fused stages directly — [Padding.Kernel] for the gateway, one chained
   [Netsim.Linkstage] per hop — and times every [advance] call.  The
   drive loop advances in chunks of at most ~0.14 simulated seconds, so a
   run makes thousands of calls: their times are summed per stage rather
   than kept as one span each.
   The RNG streams are split in [Fastpath.try_run]'s order and the chunk
   boundaries come from the same [Starvation.drive] arithmetic, so the
   replayed tap times must equal [System.run]'s bit for bit; anything
   else means the stage split no longer describes what the system runs. *)

open Scenarios

type stats = {
  fires : int;  (** gateway timer fires *)
  enqueued : int;  (** link enqueues over all hops, padded and cross *)
  cross : int;  (** cross-traffic enqueues: enqueued minus padded inputs *)
  advances : int;  (** [advance] calls, all stages *)
  kernel_s : float;  (** time in [Padding.Kernel.advance] *)
  linkstage_s : float;  (** time in [Netsim.Linkstage.advance], all hops *)
}

type outcome = Replayed of float array * stats | Tie

let kgw = Padding.Kernel.create ()
let stages = ref [||]
let tap = Netsim.Fvec.create ()

let stage_scratch n =
  let have = Array.length !stages in
  if have < n then
    stages :=
      Array.append !stages
        (Array.init (n - have) (fun _ -> Netsim.Linkstage.create ()));
  !stages

let run (cfg : System.config) ~piats =
  let hops = cfg.System.hops in
  let n = Array.length hops in
  let root = Prng.Rng.create ~seed:cfg.System.seed in
  let rng_payload = Prng.Rng.split root in
  let rng_gateway = Prng.Rng.split root in
  let rng_cross = Prng.Rng.split root in
  (* One child stream per hop with cross traffic, split back to front as
     [Netsim.Topology.chain] does. *)
  let children = Array.make n None in
  for i = n - 1 downto 0 do
    match hops.(i).Netsim.Topology.cross with
    | None -> ()
    | Some _ -> children.(i) <- Some (Prng.Rng.split rng_cross)
  done;
  Padding.Kernel.configure kgw ~rng_payload ~rng_gateway
    ~timer:cfg.System.timer ~jitter:cfg.System.jitter
    ~packet_size:cfg.System.packet_size
    ~payload_rate:cfg.System.payload_rate_pps;
  let stages = stage_scratch n in
  let in_t = ref (Padding.Kernel.out_times kgw) in
  let in_tag = ref (Padding.Kernel.out_tags kgw) in
  let inputs = Array.make n !in_t in
  for i = 0 to n - 1 do
    let h = hops.(i) in
    let cross =
      match (h.Netsim.Topology.cross, children.(i)) with
      | Some c, Some rng ->
          Some (rng, c.Netsim.Topology.rate_pps, c.Netsim.Topology.size_bytes)
      | _ -> None
    in
    Netsim.Linkstage.configure stages.(i)
      ~bandwidth_bps:h.Netsim.Topology.bandwidth_bps
      ~propagation:h.Netsim.Topology.propagation
      ~queue_limit:h.Netsim.Topology.queue_limit
      ~packet_size:cfg.System.packet_size ~cross ~in_t:!in_t ~in_tag:!in_tag;
    inputs.(i) <- !in_t;
    in_t := Netsim.Linkstage.out_times stages.(i);
    in_tag := Netsim.Linkstage.out_tags stages.(i)
  done;
  Netsim.Fvec.clear tap;
  let absorb times =
    for i = 0 to Netsim.Fvec.length times - 1 do
      Netsim.Fvec.push tap (Netsim.Fvec.unsafe_get times i)
    done
  in
  let clock = ref 0.0 in
  let padded_in = ref 0 in
  let advances = ref 0 and kernel_s = ref 0.0 and linkstage_s = ref 0.0 in
  let timed acc f =
    let t0 = Measure.now () in
    f ();
    acc := !acc +. (Measure.now () -. t0);
    incr advances
  in
  let advance until =
    timed kernel_s (fun () -> Padding.Kernel.advance kgw ~until);
    if cfg.System.tap_position = 0 then absorb (Padding.Kernel.out_times kgw);
    for i = 0 to n - 1 do
      padded_in := !padded_in + Netsim.Fvec.length inputs.(i);
      timed linkstage_s (fun () -> Netsim.Linkstage.advance stages.(i) ~until);
      if cfg.System.tap_position = i + 1 then
        absorb (Netsim.Linkstage.out_times stages.(i))
    done;
    (* [Sim.run_until] leaves the kernel path's clock at the boundary. *)
    clock := until
  in
  match
    Starvation.drive ~scenario:"system.run" ~slack:1.1 ~min_chunk:0.1
      ~now:(fun () -> !clock)
      ~count:(fun () -> Netsim.Fvec.length tap)
      ~advance ~on_starve:ignore
      ~target:(piats + cfg.System.warmup_piats + 2)
      ~expected_rate:(1.0 /. Padding.Timer.mean cfg.System.timer)
      ()
  with
  | exception (Padding.Kernel.Tie | Netsim.Linkstage.Tie) -> Tie
  | () ->
      let all = Netsim.Fvec.to_array tap in
      let drop = cfg.System.warmup_piats + 1 in
      let len = Array.length all in
      let timestamps =
        if len <= drop then [||] else Array.sub all drop (len - drop)
      in
      let enqueued = ref 0 in
      for i = 0 to n - 1 do
        enqueued := !enqueued + Netsim.Linkstage.enqueued stages.(i)
      done;
      Replayed
        ( timestamps,
          {
            fires = Padding.Kernel.fires kgw;
            enqueued = !enqueued;
            cross = !enqueued - !padded_in;
            advances = !advances;
            kernel_s = !kernel_s;
            linkstage_s = !linkstage_s;
          } )

let bit_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b
