type kind = Spectral_entropy | Spectral_power

let extract kind window =
  if Array.length window < 4 then invalid_arg "Spectral.extract: need n >= 4";
  match kind with
  | Spectral_entropy -> Stats.Fourier.spectral_entropy window
  | Spectral_power ->
      let p = Stats.Fourier.periodogram window in
      let acc = ref 0.0 in
      for k = 1 to Array.length p - 1 do
        acc := !acc +. p.(k)
      done;
      !acc

let features_of_trace kind ~sample_size trace =
  let windows = Dataset.slice trace ~sample_size in
  if Array.length windows = 0 then
    invalid_arg "Spectral.features_of_trace: trace shorter than one window";
  Array.map (extract kind) windows

let estimate ?priors ~kind ~sample_size ~classes () =
  let named_features =
    Array.map
      (fun (cls_name, trace) ->
        (cls_name, features_of_trace kind ~sample_size trace))
      classes
  in
  (* Reported under the variance feature's banner sizes; the result's
     [feature] field is not meaningful for spectral kinds, so reuse
     Sample_variance as the carrier and rely on the caller's labeling. *)
  Detection.estimate_on_features ?priors ~feature:Feature.Sample_variance
    ~sample_size ~named_features ()
