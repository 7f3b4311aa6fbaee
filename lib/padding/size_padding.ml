let pad_port ~target ~dest =
  if target <= 0 then invalid_arg "Size_padding.pad_port: target <= 0";
  fun pkt ->
    let size = pkt.Netsim.Packet.size_bytes in
    if size > target then
      invalid_arg "Size_padding: packet exceeds the padding target";
    if size = target then dest pkt
    else
      dest
        (Netsim.Packet.make ~kind:pkt.Netsim.Packet.kind ~size_bytes:target
           ~created:pkt.Netsim.Packet.created)
