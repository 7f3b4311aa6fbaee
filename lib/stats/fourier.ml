let is_pow2 n = n > 0 && n land (n - 1) = 0

let next_pow2 n =
  if n < 1 then invalid_arg "Fourier.next_pow2: n < 1";
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

(* Iterative Cooley-Tukey, decimation in time, with a sign parameter so the
   same body serves forward (-1) and inverse (+1) transforms. *)
let fft_core ~sign ~re ~im =
  let n = Array.length re in
  if Array.length im <> n then invalid_arg "Fourier.fft: length mismatch";
  if not (is_pow2 n) then invalid_arg "Fourier.fft: length not a power of two";
  (* Bit-reversal permutation. *)
  let j = ref 0 in
  for i = 0 to n - 2 do
    if i < !j then begin
      let tr = re.(i) in
      re.(i) <- re.(!j);
      re.(!j) <- tr;
      let ti = im.(i) in
      im.(i) <- im.(!j);
      im.(!j) <- ti
    end;
    let m = ref (n lsr 1) in
    while !m >= 1 && !j land !m <> 0 do
      j := !j lxor !m;
      m := !m lsr 1
    done;
    j := !j lor !m
  done;
  (* Butterflies. *)
  let len = ref 2 in
  while !len <= n do
    let ang = sign *. 2.0 *. Float.pi /. float_of_int !len in
    let wr = cos ang and wi = sin ang in
    let i = ref 0 in
    while !i < n do
      let cur_r = ref 1.0 and cur_i = ref 0.0 in
      for k = !i to !i + (!len / 2) - 1 do
        let k2 = k + (!len / 2) in
        let xr = (re.(k2) *. !cur_r) -. (im.(k2) *. !cur_i) in
        let xi = (re.(k2) *. !cur_i) +. (im.(k2) *. !cur_r) in
        re.(k2) <- re.(k) -. xr;
        im.(k2) <- im.(k) -. xi;
        re.(k) <- re.(k) +. xr;
        im.(k) <- im.(k) +. xi;
        let nr = (!cur_r *. wr) -. (!cur_i *. wi) in
        cur_i := (!cur_r *. wi) +. (!cur_i *. wr);
        cur_r := nr
      done;
      i := !i + !len
    done;
    len := !len * 2
  done

let fft ~re ~im = fft_core ~sign:(-1.0) ~re ~im

(* talint: allow U001 — oracle: the fft round-trip test inverts with it *)
let ifft ~re ~im =
  fft_core ~sign:1.0 ~re ~im;
  let n = float_of_int (Array.length re) in
  for i = 0 to Array.length re - 1 do
    re.(i) <- re.(i) /. n;
    im.(i) <- im.(i) /. n
  done

let periodogram xs =
  let n = Array.length xs in
  if n < 2 then invalid_arg "Fourier.periodogram: need n >= 2";
  let mean = Descriptive.mean xs in
  let n_fft = next_pow2 n in
  let re = Array.make n_fft 0.0 and im = Array.make n_fft 0.0 in
  Array.iteri (fun i x -> re.(i) <- x -. mean) xs;
  fft ~re ~im;
  let half = (n_fft / 2) + 1 in
  Array.init half (fun k ->
      ((re.(k) *. re.(k)) +. (im.(k) *. im.(k))) /. float_of_int n)

let spectral_entropy xs =
  if Array.length xs < 4 then invalid_arg "Fourier.spectral_entropy: need n >= 4";
  let p = periodogram xs in
  (* Skip DC (index 0); normalize the rest into a probability vector. *)
  let total = ref 0.0 in
  for k = 1 to Array.length p - 1 do
    total := !total +. p.(k)
  done;
  if !total <= 0.0 then 0.0
  else begin
    let h = ref 0.0 in
    for k = 1 to Array.length p - 1 do
      let q = p.(k) /. !total in
      if q > 0.0 then h := !h -. (q *. log q)
    done;
    !h
  end
