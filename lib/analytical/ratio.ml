type components = {
  sigma_t : float;
  sigma_net : float;
  sigma_gw_low : float;
  sigma_gw_high : float;
}

let make ?(sigma_t = 0.0) ?(sigma_net = 0.0) ~sigma_gw_low ~sigma_gw_high () =
  if sigma_t < 0.0 then invalid_arg "Ratio.make: sigma_t < 0";
  if sigma_net < 0.0 then invalid_arg "Ratio.make: sigma_net < 0";
  if sigma_gw_low <= 0.0 then invalid_arg "Ratio.make: sigma_gw_low <= 0";
  if sigma_gw_high < sigma_gw_low then
    invalid_arg "Ratio.make: sigma_gw_high < sigma_gw_low";
  { sigma_t; sigma_net; sigma_gw_low; sigma_gw_high }

let sq x = x *. x

let r c =
  let base = sq c.sigma_t +. sq c.sigma_net in
  (base +. sq c.sigma_gw_high) /. (base +. sq c.sigma_gw_low)
