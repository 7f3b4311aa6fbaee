let simpson_panel f a fa b fb =
  let m = 0.5 *. (a +. b) in
  let fm = f m in
  (m, fm, (b -. a) /. 6.0 *. (fa +. (4.0 *. fm) +. fb))

(* talint: allow U001 — oracle: test_kde integrates the live KDE with it *)
let simpson ?(eps = 1e-10) ?(max_depth = 50) f ~lo ~hi =
  if lo = hi then 0.0
  else
    let sign, a, b = if lo < hi then (1.0, lo, hi) else (-1.0, hi, lo) in
    let fa = f a and fb = f b in
    let m, fm, whole = simpson_panel f a fa b fb in
    let rec go a fa b fb m fm whole eps depth =
      let lm, flm, left = simpson_panel f a fa m fm in
      let rm, frm, right = simpson_panel f m fm b fb in
      let delta = left +. right -. whole in
      if depth >= max_depth || Float.abs delta <= 15.0 *. eps then
        left +. right +. (delta /. 15.0)
      else
        go a fa m fm lm flm left (eps /. 2.0) (depth + 1)
        +. go m fm b fb rm frm right (eps /. 2.0) (depth + 1)
    in
    sign *. go a fa b fb m fm whole eps 0
