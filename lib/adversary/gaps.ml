let fold ~tau piats =
  if not (tau > 0.0) then invalid_arg "Gaps.fold: tau <= 0";
  let out = ref [] in
  let n = ref 0 in
  Array.iter
    (fun x ->
      let k = Float.round (x /. tau) in
      if k >= 1.0 then begin
        out := (x -. ((k -. 1.0) *. tau)) :: !out;
        incr n
      end)
    piats;
  let arr = Array.make !n 0.0 in
  List.iteri (fun i v -> arr.(!n - 1 - i) <- v) !out;
  arr

let gap_fraction ~tau piats =
  if not (tau > 0.0) then invalid_arg "Gaps.gap_fraction: tau <= 0";
  let n = Array.length piats in
  if n = 0 then 0.0
  else begin
    let gaps = ref 0 in
    Array.iter
      (fun x -> if Float.round (x /. tau) <> 1.0 then incr gaps)
      piats;
    float_of_int !gaps /. float_of_int n
  end
