let both f g =
  let a = f () in
  (a, g ())
