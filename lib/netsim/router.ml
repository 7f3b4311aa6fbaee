type t = { link : Link.t; forwarded : int ref }

let create sim ~bandwidth_bps ?propagation ?queue_limit ~dest () =
  let forwarded = ref 0 in
  let link =
    Link.create sim ~bandwidth_bps ?propagation ?queue_limit
      ~dest:(fun pkt ->
        incr forwarded;
        dest pkt)
      ()
  in
  { link; forwarded }

(* Cross packets exit at this hop: they take the link's no-event path. *)
let port t =
  let link = t.link in
  fun pkt ->
    if pkt.Packet.kind = Packet.Cross then Link.send_exiting link pkt
    else Link.send link pkt

let link t = t.link
(* talint: allow U001 — tests read it to observe the live router *)
let forwarded t = !(t.forwarded)
(* talint: allow U001 — tests read it to observe the live router *)
let diverted t = Link.exited t.link
