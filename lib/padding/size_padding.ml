(* A cross-run accumulator read only between runs; Atomic keeps the
   count exact when simulations run on Exec.Pool domains. *)
let total_padding = Atomic.make 0

let pad_port ~target ~dest =
  if target <= 0 then invalid_arg "Size_padding.pad_port: target <= 0";
  fun pkt ->
    let size = pkt.Netsim.Packet.size_bytes in
    if size > target then
      invalid_arg "Size_padding: packet exceeds the padding target";
    if size = target then dest pkt
    else begin
      ignore (Atomic.fetch_and_add total_padding (target - size) : int);
      dest
        (Netsim.Packet.make ~kind:pkt.Netsim.Packet.kind ~size_bytes:target
           ~created:pkt.Netsim.Packet.created)
    end

(* talint: allow U001 — tests read it to observe live padding *)
let padded_bytes () = Atomic.get total_padding
(* talint: allow U001 — tests reset the shared counter between cases *)
let reset_padded_bytes () = Atomic.set total_padding 0
