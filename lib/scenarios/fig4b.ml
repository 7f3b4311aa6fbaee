type t = { r_hat : float; rows : Workload.scored list }

let default_sample_sizes = [ 10; 20; 50; 100; 200; 400; 700; 1000 ]

let run ?(scale = 1.0) ?(seed = 42_002) ?(sample_sizes = default_sample_sizes)
    ?csv_dir fmt =
  let sample_sizes = List.sort_uniq compare sample_sizes in
  let max_n =
    match List.rev sample_sizes with
    | n :: _ -> n
    | [] -> invalid_arg "Fig4b.run: empty sample_sizes"
  in
  let windows = Stdlib.max 8 (int_of_float (60.0 *. scale)) in
  let base = { System.default_config with System.seed } in
  let digest =
    Sweep.digest_of_string
      (Printf.sprintf "fig4b|seed=%d|w=%d|points=%s" seed windows
         (String.concat "," (List.map string_of_int sample_sizes)))
  in
  (* The trace pair is shared by every sample size: collect it once in
     [prepare], which the runner skips when all points replay from the
     journal.  Scoring is pure (no RNG): each sample size can be scored
     in parallel without affecting the result.  Each point's payload
     carries [r_hat] so the table title survives a full replay. *)
  let traces_ref = ref None in
  let prepare () =
    traces_ref :=
      Some
        (Obs.span "fig4b.collect" (fun () ->
             Workload.collect_pair ~base ~piats:(max_n * windows)))
  in
  let cells =
    Obs.span "fig4b.score" (fun () ->
        Sweep.mapi ~sweep:"fig4b" ~digest ~seed ~prepare
          ~task:(fun ~attempt:_ _i n ->
            match !traces_ref with
            | None ->
                raise
                  (Sweep.Sweep_internal_error
                     "fig4b: prepare did not collect traces")
            | Some traces ->
                ( traces.Workload.r_hat,
                  Workload.score traces
                    ~features:Adversary.Feature.standard_set ~sample_size:n ))
          sample_sizes)
  in
  let r_hat =
    match Sweep.ok_values cells with (r, _) :: _ -> r | [] -> Float.nan
  in
  Sweep.render ~csv:(csv_dir, "fig4b.csv")
    ~title:
      (Printf.sprintf
         "Fig 4(b): detection rate vs sample size (CIT, no cross traffic, \
          r_hat=%.3f)"
         r_hat)
    ~columns:[ "n"; "feature"; "empirical"; "95% CI"; "theory" ]
    ~key:string_of_int
    ~rows:(fun (_, scores) ->
      List.map
        (fun (s : Workload.scored) ->
          [
            string_of_int s.sample_size;
            Adversary.Feature.name s.feature;
            Printf.sprintf "%.3f" s.empirical;
            Workload.pp_ci s;
            Printf.sprintf "%.3f" s.theory;
          ])
        scores)
    sample_sizes cells fmt;
  { r_hat; rows = List.concat_map snd (Sweep.ok_values cells) }
