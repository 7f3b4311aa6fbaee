let same_strict_sign a b = (a > 0.0 && b > 0.0) || (a < 0.0 && b < 0.0)

let bisect ?(eps = 1e-12) ?(max_iter = 200) f ~lo ~hi =
  let flo = f lo and fhi = f hi in
  if flo = 0.0 then lo
  else if fhi = 0.0 then hi
  else if same_strict_sign flo fhi then
    invalid_arg "Rootfind.bisect: no sign change on bracket"
  else begin
    let lo = ref lo and hi = ref hi and flo = ref flo in
    let i = ref 0 in
    while !hi -. !lo > eps *. (1.0 +. Float.abs !lo) && !i < max_iter do
      let mid = 0.5 *. (!lo +. !hi) in
      let fmid = f mid in
      if fmid = 0.0 then begin
        lo := mid;
        hi := mid
      end
      else if same_strict_sign !flo fmid then begin
        lo := mid;
        flo := fmid
      end
      else hi := mid;
      incr i
    done;
    0.5 *. (!lo +. !hi)
  end
