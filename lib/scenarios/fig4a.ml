type class_stats = {
  label : string;
  n : int;
  mean : float;
  std : float;
  skewness : float;
  kurtosis_excess : float;
  jarque_bera_p : float;
  ks_normal_p : float;
}

type t = {
  low : class_stats;
  high : class_stats;
  r_hat : float;
  density_grid : (float * float * float) array;
}

(* Tests on the full trace reject tiny model deviations at huge n (the
   MA(1) correlation the mechanistic gateway induces is real, as it is on
   real hardware); a fixed-size subsample asks the paper's actual question
   — "is this bell-shaped?" — at the adversary's scale. *)
let subsample xs k =
  let n = Array.length xs in
  if n <= k then Array.copy xs
  else begin
    let step = n / k in
    Array.init k (fun i -> xs.(i * step))
  end

let stats_of ~label xs =
  let acc = Stats.Descriptive.Acc.create () in
  Array.iter (Stats.Descriptive.Acc.add acc) xs;
  let sub = subsample xs 800 in
  let mu = Stats.Descriptive.mean sub and sd = Stats.Descriptive.std sub in
  let jb = Stats.Hypothesis.jarque_bera sub in
  let ks =
    Stats.Hypothesis.ks_test sub ~cdf:(Stats.Special.normal_cdf ~mu ~sigma:sd)
  in
  {
    label;
    n = Array.length xs;
    mean = Stats.Descriptive.Acc.mean acc;
    std = Stats.Descriptive.Acc.std acc;
    skewness = Stats.Descriptive.Acc.skewness acc;
    kurtosis_excess = Stats.Descriptive.Acc.kurtosis_excess acc;
    jarque_bera_p = jb.Stats.Hypothesis.p_value;
    ks_normal_p = ks.Stats.Hypothesis.p_value;
  }

let run ?(scale = 1.0) ?(seed = 42_001) ?csv_dir fmt =
  let piats = Stdlib.max 2_000 (int_of_float (30_000.0 *. scale)) in
  let base = { System.default_config with System.seed } in
  let traces = Workload.collect_pair ~base ~piats in
  let low_piats = traces.Workload.low.System.piats in
  let high_piats = traces.Workload.high.System.piats in
  let low = stats_of ~label:Calibration.label_low low_piats in
  let high = stats_of ~label:Calibration.label_high high_piats in
  (* KDE density curves on a grid spanning both distributions. *)
  let kde_low = Stats.Kde.fit (subsample low_piats 4_000) in
  let kde_high = Stats.Kde.fit (subsample high_piats 4_000) in
  let span = 4.0 *. Float.max low.std high.std in
  let center = Calibration.timer_mean in
  let grid_points = 17 in
  let density_grid =
    Array.init grid_points (fun i ->
        let x =
          center -. span
          +. (2.0 *. span *. float_of_int i /. float_of_int (grid_points - 1))
        in
        (x, Stats.Kde.pdf kde_low x, Stats.Kde.pdf kde_high x))
  in
  let stats_table =
    Table.create ~title:"Fig 4(a): PIAT statistics, CIT, zero cross traffic"
      ~columns:
        [ "class"; "n"; "mean(ms)"; "std(us)"; "skew"; "ex.kurt"; "JB p"; "KS p" ]
  in
  List.iter
    (fun s ->
      Table.add_row stats_table
        [
          s.label;
          string_of_int s.n;
          Printf.sprintf "%.5f" (s.mean *. 1e3);
          Printf.sprintf "%.3f" (s.std *. 1e6);
          Printf.sprintf "%.3f" s.skewness;
          Printf.sprintf "%.3f" s.kurtosis_excess;
          Printf.sprintf "%.3f" s.jarque_bera_p;
          Printf.sprintf "%.3f" s.ks_normal_p;
        ])
    [ low; high ];
  Table.print stats_table fmt;
  Format.fprintf fmt "variance ratio r_hat = %.4f (sigma_h/sigma_l = %.4f)@."
    traces.Workload.r_hat (sqrt traces.Workload.r_hat);
  let density_table =
    Table.create ~title:"Fig 4(a): PIAT PDF (Gaussian KDE)"
      ~columns:[ "piat(ms)"; "density 10pps (1/ms)"; "density 40pps (1/ms)" ]
  in
  Array.iter
    (fun (x, dl, dh) ->
      Table.add_row density_table
        [
          Printf.sprintf "%.5f" (x *. 1e3);
          (* density per ms, like the paper's axis *)
          Printf.sprintf "%.4f" (dl /. 1e3);
          Printf.sprintf "%.4f" (dh /. 1e3);
        ])
    density_grid;
  Table.print ~csv:(csv_dir, "fig4a.csv") density_table fmt;
  { low; high; r_hat = traces.Workload.r_hat; density_grid }
