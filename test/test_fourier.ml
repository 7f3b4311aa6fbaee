(* FFT and spectral estimation: exact identities on known signals. *)

let close ?(tol = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > tol *. Float.max 1.0 (Float.abs expected)
  then Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let test_next_pow2 () =
  Alcotest.(check int) "1" 1 (Stats.Fourier.next_pow2 1);
  Alcotest.(check int) "2" 2 (Stats.Fourier.next_pow2 2);
  Alcotest.(check int) "3->4" 4 (Stats.Fourier.next_pow2 3);
  Alcotest.(check int) "1000->1024" 1024 (Stats.Fourier.next_pow2 1000);
  Alcotest.check_raises "0" (Invalid_argument "Fourier.next_pow2: n < 1")
    (fun () -> ignore (Stats.Fourier.next_pow2 0))

let test_fft_impulse () =
  (* delta at 0 -> flat spectrum of ones *)
  let n = 8 in
  let re = Array.make n 0.0 and im = Array.make n 0.0 in
  re.(0) <- 1.0;
  Stats.Fourier.fft ~re ~im;
  Array.iter (fun x -> close "re 1" 1.0 x) re;
  Array.iter (fun x -> close "im 0" 0.0 x) im

let test_fft_constant () =
  (* all-ones -> n at DC, 0 elsewhere *)
  let n = 16 in
  let re = Array.make n 1.0 and im = Array.make n 0.0 in
  Stats.Fourier.fft ~re ~im;
  close "DC" (float_of_int n) re.(0);
  for k = 1 to n - 1 do
    close "zero bin re" 0.0 re.(k);
    close "zero bin im" 0.0 im.(k)
  done

let test_fft_single_tone () =
  (* cos(2 pi 3 t / n) -> spikes of n/2 at bins 3 and n-3 *)
  let n = 32 in
  let re =
    Array.init n (fun t ->
        cos (2.0 *. Float.pi *. 3.0 *. float_of_int t /. float_of_int n))
  in
  let im = Array.make n 0.0 in
  Stats.Fourier.fft ~re ~im;
  close ~tol:1e-9 "bin 3" (float_of_int n /. 2.0) re.(3);
  close ~tol:1e-9 "bin n-3" (float_of_int n /. 2.0) re.(n - 3);
  close "bin 5 empty" 0.0 re.(5)

let test_fft_ifft_roundtrip () =
  let rng = Prng.Rng.create ~seed:201 in
  let n = 64 in
  let orig = Array.init n (fun _ -> Prng.Sampler.normal rng ~mu:0.0 ~sigma:1.0) in
  let re = Array.copy orig and im = Array.make n 0.0 in
  Stats.Fourier.fft ~re ~im;
  Stats.Fourier.ifft ~re ~im;
  Array.iteri (fun i x -> close ~tol:1e-9 "roundtrip" orig.(i) x) re;
  Array.iter (fun x -> close ~tol:1e-9 "imag zero" 0.0 x) im

let test_fft_parseval () =
  let rng = Prng.Rng.create ~seed:202 in
  let n = 128 in
  let xs = Array.init n (fun _ -> Prng.Sampler.normal rng ~mu:0.0 ~sigma:2.0) in
  let re = Array.copy xs and im = Array.make n 0.0 in
  Stats.Fourier.fft ~re ~im;
  let time_energy = Array.fold_left (fun a x -> a +. (x *. x)) 0.0 xs in
  let freq_energy = ref 0.0 in
  for k = 0 to n - 1 do
    freq_energy := !freq_energy +. (re.(k) *. re.(k)) +. (im.(k) *. im.(k))
  done;
  close ~tol:1e-9 "Parseval" time_energy (!freq_energy /. float_of_int n)

let test_fft_invalid () =
  Alcotest.check_raises "not pow2"
    (Invalid_argument "Fourier.fft: length not a power of two") (fun () ->
      Stats.Fourier.fft ~re:(Array.make 6 0.0) ~im:(Array.make 6 0.0));
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Fourier.fft: length mismatch") (fun () ->
      Stats.Fourier.fft ~re:(Array.make 8 0.0) ~im:(Array.make 4 0.0))

let test_periodogram_mass () =
  (* Sum of the (two-sided-equivalent) periodogram equals the series
     energy after mean removal; check the variance connection loosely. *)
  let rng = Prng.Rng.create ~seed:203 in
  let n = 256 in
  let xs = Array.init n (fun _ -> Prng.Sampler.normal rng ~mu:5.0 ~sigma:1.0) in
  let p = Stats.Fourier.periodogram xs in
  close "DC removed" 0.0 p.(0);
  Alcotest.(check bool) "non-negative" true (Array.for_all (fun x -> x >= 0.0) p)

let test_spectral_entropy_tone_vs_noise () =
  let rng = Prng.Rng.create ~seed:205 in
  let n = 256 in
  let tone =
    Array.init n (fun t -> sin (2.0 *. Float.pi *. 10.0 *. float_of_int t /. float_of_int n))
  in
  let noise = Array.init n (fun _ -> Prng.Sampler.normal rng ~mu:0.0 ~sigma:1.0) in
  let h_tone = Stats.Fourier.spectral_entropy tone in
  let h_noise = Stats.Fourier.spectral_entropy noise in
  Alcotest.(check bool) "tone is spectrally concentrated" true
    (h_tone < h_noise -. 1.0);
  Alcotest.(check bool) "both nonnegative" true (h_tone >= 0.0 && h_noise >= 0.0)

let prop_periodogram_nonneg =
  QCheck.Test.make ~name:"periodogram non-negative" ~count:100
    QCheck.(array_of_size Gen.(int_range 2 100) (float_bound_exclusive 10.0))
    (fun xs ->
      Array.for_all (fun p -> p >= -1e-12) (Stats.Fourier.periodogram xs))

let suite =
  [
    Alcotest.test_case "next_pow2" `Quick test_next_pow2;
    Alcotest.test_case "impulse -> flat" `Quick test_fft_impulse;
    Alcotest.test_case "constant -> DC" `Quick test_fft_constant;
    Alcotest.test_case "single tone bins" `Quick test_fft_single_tone;
    Alcotest.test_case "fft/ifft roundtrip" `Quick test_fft_ifft_roundtrip;
    Alcotest.test_case "Parseval" `Quick test_fft_parseval;
    Alcotest.test_case "fft invalid" `Quick test_fft_invalid;
    Alcotest.test_case "periodogram basics" `Quick test_periodogram_mass;
    Alcotest.test_case "spectral entropy tone<noise" `Quick test_spectral_entropy_tone_vs_noise;
    QCheck_alcotest.to_alcotest prop_periodogram_nonneg;
  ]
