type kind = Campus | Wan

type point = {
  hour : float;
  utilization : float;
  r_hat : float;
  scores : Workload.scored list;
}

type t = { kind : kind; sample_size : int; points : point list }

let kind_name = function Campus -> "campus" | Wan -> "wan"

let hop ~utilization =
  Fig6.hop_for_utilization ~utilization ~burst:`Poisson

let hops_for kind ~hour =
  match kind with
  | Campus ->
      let u = Diurnal.campus_utilization ~hour in
      Array.init 4 (fun _ -> hop ~utilization:u)
  | Wan ->
      let congested = Diurnal.wan_congested_utilization ~hour in
      let light = Diurnal.wan_light_utilization ~hour in
      let congested_positions = [ 2; 4; 7; 9; 11; 13 ] in
      Array.init 15 (fun i ->
          (* Six loaded exchange/edge hops spread along the 15-router path. *)
          if List.mem i congested_positions then hop ~utilization:congested
          else hop ~utilization:light)

let hours = [ 0.; 2.; 4.; 6.; 8.; 10.; 12.; 14.; 16.; 18.; 20.; 22. ]
let sample_size = 1000

let run ?(scale = 1.0) ?(seed = 42_006) ?half_width ~kind ?csv_dir fmt =
  let windows = Stdlib.max 6 (int_of_float (16.0 *. scale)) in
  let features = Adversary.Feature.standard_set in
  let plan =
    Workload.window_plan ~sample_size ~max_windows:windows ?half_width ()
  in
  let sweep = Printf.sprintf "fig8.%s" (kind_name kind) in
  let digest =
    Sweep.digest_of_string
      (Printf.sprintf "%s|seed=%d|n=%d|w=%d|stride=%d|wps=%d|minw=%d|hw=%s|points=%s"
         sweep seed sample_size windows plan.Workload.stride
         plan.Workload.windows_per_shard plan.Workload.min_windows
         (match plan.Workload.half_width with
         | None -> "-"
         | Some h -> Printf.sprintf "%h" h)
         (String.concat "," (List.map (Printf.sprintf "%h") hours)))
  in
  (* Hours are seeded by index, hence independent: fan them out. *)
  let cells =
    Sweep.mapi ~sweep ~digest ~seed
      ~task:(fun ~attempt i hour ->
        let hops = hops_for kind ~hour in
        let base =
          {
            System.default_config with
            System.seed =
              Sweep.attempt_seed ~seed:(seed + (100 * i)) ~attempt;
            hops;
            tap_position = Array.length hops;  (* front of receiver gateway *)
          }
        in
        let pair, scores = Workload.collect_windowed ~base ~plan ~features in
        let utilization =
          match kind with
          | Campus -> Diurnal.campus_utilization ~hour
          | Wan -> Diurnal.wan_congested_utilization ~hour
        in
        { hour; utilization; r_hat = pair.Workload.ratio_hat; scores })
      hours
  in
  Sweep.render
    ~csv:(csv_dir, Printf.sprintf "fig8_%s.csv" (kind_name kind))
    ~title:
      (Printf.sprintf
         "Fig 8(%s): detection rate over the day (%s path, sample size %d)"
         (match kind with Campus -> "a" | Wan -> "b")
         (kind_name kind) sample_size)
    ~columns:[ "hour"; "util"; "r_hat"; "feature"; "empirical"; "95% CI"; "theory" ]
    ~key:(Printf.sprintf "%02.0f:00")
    ~rows:(fun p ->
      List.map
        (fun (s : Workload.scored) ->
          [
            Printf.sprintf "%02.0f:00" p.hour;
            Printf.sprintf "%.3f" p.utilization;
            Printf.sprintf "%.4f" p.r_hat;
            Adversary.Feature.name s.feature;
            Printf.sprintf "%.3f" s.empirical;
            Workload.pp_ci s;
            Printf.sprintf "%.3f" s.theory;
          ])
        p.scores)
    hours cells fmt;
  { kind; sample_size; points = Sweep.ok_values cells }
