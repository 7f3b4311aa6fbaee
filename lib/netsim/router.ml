type t = {
  link : Link.t;
  mutable forwarded : int;
  mutable diverted : int;
}

let create sim ~bandwidth_bps ?propagation ?queue_limit ~dest () =
  (* Tie the knot: the link's destination consults the router record to
     decide between forwarding and diverting. *)
  let rec t =
    lazy
      {
        link =
          Link.create sim ~bandwidth_bps ?propagation ?queue_limit
            ~dest:(fun pkt ->
              let t = Lazy.force t in
              if pkt.Packet.kind = Packet.Cross then
                t.diverted <- t.diverted + 1
              else begin
                t.forwarded <- t.forwarded + 1;
                dest pkt
              end)
            ();
        forwarded = 0;
        diverted = 0;
      }
  in
  Lazy.force t

let port t = Link.port t.link
let link t = t.link
(* talint: allow U001 — tests read it to observe the live router *)
let forwarded t = t.forwarded
(* talint: allow U001 — tests read it to observe the live router *)
let diverted t = t.diverted
