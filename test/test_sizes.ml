(* The packet-size channel: variable-size sources, tap size recording,
   size-based features, and the size-padding countermeasure. *)

let close ?(tol = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > tol *. Float.max 1.0 (Float.abs expected)
  then Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let test_tap_records_sizes () =
  let sim = Desim.Sim.create () in
  let tap = Netsim.Tap.create sim ~dest:(fun _ -> ()) () in
  List.iter
    (fun size ->
      Netsim.Tap.port tap
        (Netsim.Packet.make ~kind:Netsim.Packet.Payload ~size_bytes:size
           ~created:0.0))
    [ 100; 250; 1460 ];
  Alcotest.(check (array int)) "sizes in order" [| 100; 250; 1460 |]
    (Netsim.Tap.sizes tap)

let test_poisson_sized () =
  let sim = Desim.Sim.create () in
  let rng = Prng.Rng.create ~seed:251 in
  let sizes = ref [] in
  let _src =
    Netsim.Traffic_gen.poisson_sized sim ~rng ~rate_pps:100.0
      ~size_of:(fun rng -> 100 + Prng.Rng.int rng ~bound:900)
      ~kind:Netsim.Packet.Payload
      ~dest:(fun p -> sizes := p.Netsim.Packet.size_bytes :: !sizes)
      ()
  in
  Desim.Sim.run_until sim ~time:20.0;
  Alcotest.(check bool) "sizes in range" true
    (List.for_all (fun s -> s >= 100 && s < 1000) !sizes);
  let distinct = List.sort_uniq compare !sizes in
  Alcotest.(check bool) "sizes vary" true (List.length distinct > 50)

let test_size_padding_pads () =
  let out = ref [] in
  let port =
    Padding.Size_padding.pad_port ~target:1500
      ~dest:(fun p -> out := p.Netsim.Packet.size_bytes :: !out)
  in
  port (Netsim.Packet.make ~kind:Netsim.Packet.Payload ~size_bytes:100 ~created:0.0);
  port (Netsim.Packet.make ~kind:Netsim.Packet.Dummy ~size_bytes:1500 ~created:0.0);
  Alcotest.(check (list int)) "all at target" [ 1500; 1500 ] !out

let test_size_padding_preserves_kind_and_time () =
  let seen = ref None in
  let port =
    Padding.Size_padding.pad_port ~target:1000 ~dest:(fun p -> seen := Some p)
  in
  port (Netsim.Packet.make ~kind:Netsim.Packet.Dummy ~size_bytes:1 ~created:3.5);
  match !seen with
  | Some p ->
      Alcotest.(check bool) "kind kept" true (p.Netsim.Packet.kind = Netsim.Packet.Dummy);
      close "created kept" 3.5 p.Netsim.Packet.created
  | None -> Alcotest.fail "nothing forwarded"

let test_size_padding_rejects_oversize () =
  let port = Padding.Size_padding.pad_port ~target:500 ~dest:(fun _ -> ()) in
  Alcotest.check_raises "oversize"
    (Invalid_argument "Size_padding: packet exceeds the padding target")
    (fun () ->
      port (Netsim.Packet.make ~kind:Netsim.Packet.Payload ~size_bytes:600 ~created:0.0))

let test_sizes_features () =
  close "mean size" 200.0
    (Adversary.Sizes.extract Adversary.Sizes.Mean_size [| 100; 200; 300 |]);
  close "entropy of distinct" (log 3.0)
    (Adversary.Sizes.extract Adversary.Sizes.Size_entropy [| 100; 200; 300 |]);
  close "entropy of constant" 0.0
    (Adversary.Sizes.extract Adversary.Sizes.Size_entropy [| 500; 500; 500 |]);
  Alcotest.check_raises "empty" (Invalid_argument "Sizes.extract: empty window")
    (fun () -> ignore (Adversary.Sizes.extract Adversary.Sizes.Mean_size [||]))

let test_sizes_features_of_trace () =
  let fs =
    Adversary.Sizes.features_of_trace Adversary.Sizes.Mean_size ~window:2
      [| 100; 200; 400; 400; 999 |]
  in
  Alcotest.(check (array (float 1e-9))) "window means" [| 150.0; 400.0 |] fs

let test_size_attack_and_countermeasure () =
  (* Two classes with different size mixes but identical timing. *)
  let rng = Prng.Rng.create ~seed:252 in
  let column ~bulky ~padded =
    Array.init 2000 (fun _ ->
        let raw =
          if bulky && Prng.Sampler.bernoulli rng ~p:0.5 then 1460
          else 100 + Prng.Rng.int rng ~bound:200
        in
        if padded then 1500 else raw)
  in
  let attack padded =
    let res =
      Adversary.Sizes.estimate ~kind:Adversary.Sizes.Mean_size ~window:40
        ~classes:
          [|
            ("interactive", column ~bulky:false ~padded);
            ("bulk", column ~bulky:true ~padded);
          |]
        ()
    in
    res.Adversary.Detection.detection_rate
  in
  Alcotest.(check bool) "unpadded sizes leak" true (attack false > 0.95);
  let padded_rate = attack true in
  Alcotest.(check bool) "padded sizes do not" true
    (padded_rate > 0.25 && padded_rate < 0.75)

let suite =
  [
    Alcotest.test_case "tap records sizes" `Quick test_tap_records_sizes;
    Alcotest.test_case "poisson_sized" `Quick test_poisson_sized;
    Alcotest.test_case "pad_port pads" `Quick test_size_padding_pads;
    Alcotest.test_case "pad_port preserves metadata" `Quick test_size_padding_preserves_kind_and_time;
    Alcotest.test_case "pad_port rejects oversize" `Quick test_size_padding_rejects_oversize;
    Alcotest.test_case "size features" `Quick test_sizes_features;
    Alcotest.test_case "size features of trace" `Quick test_sizes_features_of_trace;
    Alcotest.test_case "size attack + countermeasure" `Quick test_size_attack_and_countermeasure;
  ]
