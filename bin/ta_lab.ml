(* ta_lab — command-line driver for the traffic-analysis countermeasure
   laboratory: reproduce any figure of Fu et al. (ICPP 2003), query the
   closed-form theory, or evaluate a custom padding configuration. *)

open Cmdliner

let fmt = Format.std_formatter

(* Reject bad numbers at the Cmdliner level (exit 2): a non-positive
   scale used to propagate until Sim.every raised Invalid_argument deep
   inside a run.  [ok] must be false on NaN. *)
let float_conv ~what ~expect ok =
  let parse s =
    match float_of_string_opt s with
    | Some f when ok f -> Ok f
    | Some _ ->
        Error (`Msg (Printf.sprintf "%s must be %s, got %s" what expect s))
    | None ->
        Error (`Msg (Printf.sprintf "invalid %s %S (expected a number)" what s))
  in
  Arg.conv (parse, fun ppf f -> Format.fprintf ppf "%g" f)

let int_conv ~what ~expect ok =
  let parse s =
    match int_of_string_opt s with
    | Some i when ok i -> Ok i
    | Some _ ->
        Error (`Msg (Printf.sprintf "%s must be %s, got %s" what expect s))
    | None ->
        Error
          (`Msg (Printf.sprintf "invalid %s %S (expected an integer)" what s))
  in
  Arg.conv (parse, Format.pp_print_int)

let pos_float_conv ~what =
  float_conv ~what ~expect:"a positive finite number" (fun f ->
      f > 0.0 && Float.is_finite f)

let pos_int_conv ~what = int_conv ~what ~expect:">= 1" (fun i -> i >= 1)

(* Every feature statistic needs two PIATs (the sample variance). *)
let samples_arg =
  let size = int_conv ~what:"sample size" ~expect:">= 2" (fun n -> n >= 2) in
  Arg.(value & opt size 1000
       & info [ "n"; "samples" ] ~docv:"N" ~doc:"Sample size (>= 2).")

let seed_conv =
  let parse s =
    match int_of_string_opt s with
    | Some i when i >= 0 -> Ok i
    | Some _ -> Error (`Msg (Printf.sprintf "seed must be non-negative, got %s" s))
    | None -> Error (`Msg (Printf.sprintf "invalid seed %S (expected an integer)" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let scale_arg =
  let doc = "Workload scale factor (1.0 = paper fidelity; smaller = faster)." in
  Arg.(value & opt (pos_float_conv ~what:"scale") 1.0
       & info [ "scale" ] ~docv:"FACTOR" ~doc)

let seed_arg =
  let doc = "Root random seed (every run is deterministic in it)." in
  Arg.(value & opt (some seed_conv) None & info [ "seed" ] ~docv:"SEED" ~doc)

let jobs_conv =
  let parse s =
    match int_of_string_opt s with
    | Some i when i >= 1 -> Ok i
    | Some _ -> Error (`Msg (Printf.sprintf "jobs must be >= 1, got %s" s))
    | None -> Error (`Msg (Printf.sprintf "invalid jobs %S (expected an integer)" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let jobs_arg =
  let doc =
    "Worker domains for the parallel sweeps (default: EXEC_JOBS or the \
     available cores, capped).  Results are bit-identical at any value."
  in
  Arg.(value & opt (some jobs_conv) None & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let apply_jobs jobs = Option.iter Exec.Pool.set_default_jobs jobs

let csv_arg =
  let doc =
    "Directory to drop CSV copies of the printed tables into (created, \
     mkdir -p style, if missing)."
  in
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"DIR" ~doc)

let trace_arg =
  let doc =
    "Write a ta-trace/1 JSONL event trace of every simulation run to \
     $(docv).  Byte-identical at any --jobs value."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc =
    "After the run, print the merged metrics registry and the per-stage \
     span profile.  Only exec.* and span timings depend on --jobs / wall \
     clock."
  in
  Arg.(value & flag & info [ "metrics" ] ~doc)

let apply_trace trace = Option.iter (fun path -> Obs.Trace.enable ~path) trace

(* Resilient-execution knobs, shared by every sweep-running command. *)

type resilience = {
  checkpoint : string option;
  retries : int option;
  strict : bool;
  inject : string option;
  event_budget : int option;
  no_kernel : bool;
}

let checkpoint_arg =
  let doc =
    "Checkpoint directory: journal every completed sweep point to \
     $(docv) (ta-ckpt/1, one file per sweep) and replay journaled points \
     on a rerun — a killed run resumes where it stopped with \
     byte-identical tables, at any --jobs."
  in
  Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"DIR" ~doc)

let retries_arg =
  let doc =
    "Re-attempts (fresh derived seed each) before a failing sweep point \
     is quarantined (default 2)."
  in
  Arg.(value & opt (some int) None & info [ "retries" ] ~docv:"N" ~doc)

let strict_arg =
  let doc =
    "Disable failure containment: the first failing sweep point aborts \
     the run with its original exception (tap starvation keeps its \
     historical exit 3)."
  in
  Arg.(value & flag & info [ "strict" ] ~doc)

let inject_arg =
  let doc =
    "Fault injection for testing the supervisor: comma-separated \
     SWEEP:INDEX (always fails) or SWEEP:INDEX@K (fails attempts < K), \
     e.g. 'fig6:2@1'."
  in
  Arg.(value & opt (some string) None & info [ "inject-fail" ] ~docv:"SPEC" ~doc)

let event_budget_arg =
  let doc =
    "Per-point simulator event budget: a sweep point whose simulation \
     processes more than $(docv) events is declared failed (watchdog \
     against runaway points)."
  in
  Arg.(value & opt (some int) None & info [ "event-budget" ] ~docv:"N" ~doc)

let no_kernel_arg =
  let doc =
    "Force every simulation onto the event loop instead of the fused \
     gateway kernels.  Output is bit-identical either way; only the \
     desim.kernel.* counters and wall-clock time differ."
  in
  Arg.(value & flag & info [ "no-kernel" ] ~doc)

let resilience_term =
  let make checkpoint retries strict inject event_budget no_kernel =
    { checkpoint; retries; strict; inject; event_budget; no_kernel }
  in
  Term.(
    const make $ checkpoint_arg $ retries_arg $ strict_arg $ inject_arg
    $ event_budget_arg $ no_kernel_arg)

let apply_resilience r =
  match Option.map Scenarios.Sweep.parse_injection r.inject with
  | Some (Error msg) -> `Error (false, msg)
  | None | Some (Ok _) -> (
      match r.retries with
      | Some n when n < 0 ->
          `Error (false, Printf.sprintf "retries must be >= 0, got %d" n)
      | _ -> (
          match r.event_budget with
          | Some n when n < 1 ->
              `Error (false, Printf.sprintf "event budget must be >= 1, got %d" n)
          | _ ->
              if r.no_kernel then Scenarios.Fastpath.set_enabled false;
              Scenarios.Sweep.set_checkpoint_dir r.checkpoint;
              Option.iter Scenarios.Sweep.set_retries r.retries;
              Scenarios.Sweep.set_strict r.strict;
              Scenarios.Sweep.set_event_budget r.event_budget;
              (match Option.map Scenarios.Sweep.parse_injection r.inject with
              | Some (Ok injections) ->
                  Scenarios.Sweep.set_injections injections
              | None | Some (Error _) -> Scenarios.Sweep.clear_injections ());
              `Ok ()))

(* Partial results: annotated tables were already printed; record the
   machine-readable manifest next to the journal (or the CSVs) and exit 4
   so scripts can tell "complete" from "degraded". *)
let finish_partial ~resilience ~csv_dir =
  if Scenarios.Sweep.partial () then begin
    Format.pp_print_flush fmt ();
    let dir =
      match (resilience.checkpoint, csv_dir) with
      | Some d, _ -> Some d
      | None, Some d -> Some d
      | None, None -> None
    in
    (match dir with
    | Some d ->
        let path = Filename.concat d "failures.json" in
        Scenarios.Sweep.write_manifest ~path;
        Format.eprintf "ta_lab: failure manifest written to %s@." path
    | None -> ());
    Format.eprintf "ta_lab: partial results:@.";
    Scenarios.Sweep.pp_failures Format.err_formatter;
    Format.pp_print_flush Format.err_formatter ();
    exit 4
  end

let print_metrics () =
  Format.fprintf fmt "@.== metrics ==@.%a" Obs.Metrics.Snapshot.pp
    (Obs.Metrics.snapshot ());
  match Obs.Span.snapshot () with
  | [] -> ()
  | spans ->
      Format.fprintf fmt "== spans ==@.";
      List.iter
        (fun (s : Obs.Span.stat) ->
          Format.fprintf fmt "span      %-44s count=%d total=%.3fs self=%.3fs@."
            s.Obs.Span.name s.count s.total_s s.self_s)
        spans

let finish_obs metrics =
  Obs.Trace.flush ();
  if metrics then print_metrics ()

let run_figure name f =
  let run scale seed csv_dir jobs trace metrics resilience =
    match apply_resilience resilience with
    | `Error _ as e -> e
    | `Ok () ->
        apply_jobs jobs;
        apply_trace trace;
        Scenarios.Calibration.print_setup fmt;
        f ~scale ?seed ?csv_dir ();
        finish_obs metrics;
        finish_partial ~resilience ~csv_dir;
        `Ok ()
  in
  let term =
    Term.(
      ret
        (const run $ scale_arg $ seed_arg $ csv_arg $ jobs_arg $ trace_arg
       $ metrics_arg $ resilience_term))
  in
  let info = Cmd.info name ~doc:(Printf.sprintf "Reproduce %s." name) in
  Cmd.v info term

let fig4a_cmd =
  run_figure "fig4a" (fun ~scale ?seed ?csv_dir () ->
      ignore (Scenarios.Fig4a.run ~scale ?seed ?csv_dir fmt))

let fig4b_cmd =
  run_figure "fig4b" (fun ~scale ?seed ?csv_dir () ->
      ignore (Scenarios.Fig4b.run ~scale ?seed ?csv_dir fmt))

let fig5a_cmd =
  run_figure "fig5a" (fun ~scale ?seed ?csv_dir () ->
      ignore (Scenarios.Fig5a.run ~scale ?seed ?csv_dir fmt))

let fig5b_cmd =
  run_figure "fig5b" (fun ~scale:_ ?seed ?csv_dir () ->
      ignore (Scenarios.Fig5b.run ?seed ?csv_dir fmt))

let fig6_cmd =
  run_figure "fig6" (fun ~scale ?seed ?csv_dir () ->
      ignore (Scenarios.Fig6.run ~scale ?seed ?csv_dir fmt))

let fig8a_cmd =
  run_figure "fig8a" (fun ~scale ?seed ?csv_dir () ->
      ignore (Scenarios.Fig8.run ~scale ?seed ~kind:Scenarios.Fig8.Campus ?csv_dir fmt))

let fig8b_cmd =
  run_figure "fig8b" (fun ~scale ?seed ?csv_dir () ->
      ignore (Scenarios.Fig8.run ~scale ?seed ~kind:Scenarios.Fig8.Wan ?csv_dir fmt))

let multirate_cmd =
  run_figure "multirate" (fun ~scale ?seed ?csv_dir () ->
      ignore (Scenarios.Multirate.run ~scale ?seed ?csv_dir fmt))

let faults_cmd =
  let intensities_arg =
    let doc =
      "Comma-separated fault intensities in [0,1] to sweep (default \
       0,0.02,0.05,0.1,0.2,0.4)."
    in
    Arg.(value & opt (some (list float)) None
         & info [ "intensities" ] ~docv:"LIST" ~doc)
  in
  let run scale seed csv_dir intensities jobs trace metrics resilience =
    match
      Option.bind intensities (fun xs ->
          List.find_opt (fun x -> Float.is_nan x || x < 0.0 || x > 1.0) xs)
    with
    | Some bad ->
        `Error
          ( false,
            Printf.sprintf "intensity %g outside the valid range [0, 1]" bad )
    | None when intensities = Some [] ->
        `Error
          ( false,
            "at least one fault intensity in the valid range [0, 1] is \
             required" )
    | None -> (
        match apply_resilience resilience with
        | `Error _ as e -> e
        | `Ok () ->
            apply_jobs jobs;
            apply_trace trace;
            Scenarios.Calibration.print_setup fmt;
            ignore
              (Scenarios.Degradation.run ~scale ?seed ?csv_dir:csv_dir
                 ?intensities fmt);
            finish_obs metrics;
            finish_partial ~resilience ~csv_dir;
            `Ok ())
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "Sweep channel-fault intensity; report detection (incl. the \
          gap-aware adversary) and QoS degradation side by side.")
    Term.(
      ret
        (const run $ scale_arg $ seed_arg $ csv_arg $ intensities_arg
       $ jobs_arg $ trace_arg $ metrics_arg $ resilience_term))

let fleet_cmd =
  let flows_arg =
    let doc =
      "Comma-separated fleet sizes (concurrent flows, each >= 1) to sweep \
       (default 1000,10000,100000; scaled by --scale)."
    in
    Arg.(value
         & opt (some (list (pos_int_conv ~what:"flow count"))) None
         & info [ "flows" ] ~docv:"LIST" ~doc)
  in
  let gateways_arg =
    let doc =
      "Padded gateways sharing the fleet (>= 1; capped at the flow count \
       per point)."
    in
    Arg.(value
         & opt (pos_int_conv ~what:"gateways") 8
         & info [ "gateways" ] ~docv:"N" ~doc)
  in
  let probes_arg =
    let doc =
      "Probe flows per point for the detection-rate distribution (>= 1)."
    in
    Arg.(value
         & opt (pos_int_conv ~what:"probes") 12
         & info [ "probes" ] ~docv:"N" ~doc)
  in
  let duration_arg =
    let doc = "Simulated mux duration per point, seconds (> 0)." in
    Arg.(value
         & opt (pos_float_conv ~what:"duration") 2.0
         & info [ "duration" ] ~docv:"SECONDS" ~doc)
  in
  let load_arg =
    let doc = "Aggregate-load shape: $(b,flat) or $(b,diurnal)." in
    Arg.(value
         & opt
             (enum
                [
                  ("flat", Scenarios.Fleet.Flat);
                  ("diurnal", Scenarios.Fleet.Diurnal);
                ])
             Scenarios.Fleet.Flat
         & info [ "load" ] ~docv:"SHAPE" ~doc)
  in
  let run scale seed csv_dir flows gateways probes duration load jobs trace
      metrics resilience =
    match flows with
    | Some [] ->
        `Error
          (false, "at least one flow count in the valid range >= 1 is required")
    | _ -> (
        match apply_resilience resilience with
        | `Error _ as e -> e
        | `Ok () ->
            apply_jobs jobs;
            apply_trace trace;
            Scenarios.Calibration.print_setup fmt;
            ignore
              (Scenarios.Fleet.run ~scale ?seed ?csv_dir ?flow_counts:flows
                 ~gateways ~probes ~duration ~load fmt);
            finish_obs metrics;
            finish_partial ~resilience ~csv_dir;
            `Ok ())
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:
         "Sweep fleet size: mux many concurrent flows behind a padded \
          gateway fleet and report the per-flow detection-rate distribution.")
    Term.(
      ret
        (const run $ scale_arg $ seed_arg $ csv_arg $ flows_arg $ gateways_arg
       $ probes_arg $ duration_arg $ load_arg $ jobs_arg $ trace_arg
       $ metrics_arg $ resilience_term))

let ablations_cmd =
  let run scale seed jobs trace metrics resilience =
    match apply_resilience resilience with
    | `Error _ as e -> e
    | `Ok () ->
    apply_jobs jobs;
    apply_trace trace;
    let seed = Option.value seed ~default:51_000 in
    Scenarios.Ablations.run_all ~scale ~seed fmt;
    finish_obs metrics;
    finish_partial ~resilience ~csv_dir:None;
    `Ok ()
  in
  Cmd.v
    (Cmd.info "ablations" ~doc:"Run all design-choice ablations.")
    Term.(
      ret (const run $ scale_arg $ seed_arg $ jobs_arg $ trace_arg
         $ metrics_arg $ resilience_term))

let theory_cmd =
  let r_arg =
    let ratio =
      float_conv ~what:"r" ~expect:"a finite number >= 1" (fun r ->
          r >= 1.0 && Float.is_finite r)
    in
    Arg.(required & opt (some ratio) None & info [ "r"; "ratio" ] ~docv:"RATIO"
           ~doc:"Variance ratio r >= 1.")
  in
  let run r n =
    Format.fprintf fmt "r = %.6f, n = %d@." r n;
    Format.fprintf fmt "  v_mean     = %.4f (independent of n)@."
      (Analytical.Theorems.v_mean ~r);
    Format.fprintf fmt "  v_variance = %.4f  (C_Y = %.4g)@."
      (Analytical.Theorems.v_variance ~r ~n)
      (Analytical.Theorems.c_variance ~r);
    Format.fprintf fmt "  v_entropy  = %.4f  (C_H = %.4g)@."
      (Analytical.Theorems.v_entropy ~r ~n)
      (Analytical.Theorems.c_entropy ~r);
    Format.fprintf fmt "  n for 99%% detection: variance %.3e, entropy %.3e@."
      (Analytical.Theorems.n_for_detection_variance ~r ~p:0.99)
      (Analytical.Theorems.n_for_detection_entropy ~r ~p:0.99);
    let exact =
      Analytical.Bayes_numeric.sample_variance_exact ~sigma2_l:1.0
        ~sigma2_h:r ~n
    in
    let bracket =
      Analytical.Bounds.sample_variance_bracket ~sigma2_l:1.0 ~sigma2_h:r ~n
    in
    Format.fprintf fmt
      "  sample-variance exact rate %.4f; Bhattacharyya bracket [%.4f, \
       %.4f]@."
      exact bracket.Analytical.Bounds.lower bracket.Analytical.Bounds.upper
  in
  Cmd.v
    (Cmd.info "theory" ~doc:"Evaluate the closed-form detection rates.")
    Term.(const run $ r_arg $ samples_arg)

let design_cmd =
  let vmax_arg =
    let rate =
      float_conv ~what:"vmax" ~expect:"in (0.5, 1)" (fun v ->
          v > 0.5 && v < 1.0)
    in
    Arg.(value & opt rate 0.55 & info [ "vmax" ] ~docv:"RATE"
           ~doc:"Tolerated detection rate in (0.5, 1).")
  in
  let nmax_arg =
    let budget = int_conv ~what:"nmax" ~expect:">= 2" (fun n -> n >= 2) in
    Arg.(value & opt budget 1_000_000
         & info [ "nmax" ] ~docv:"N"
             ~doc:"Adversary's sample-size budget (>= 2).")
  in
  let run vmax nmax seed =
    let seed = Option.value seed ~default:4242 in
    let sigma_t = Linkpad.recommend_sigma_t ~seed ~v_max:vmax ~n_max:nmax () in
    Format.fprintf fmt
      "Recommended VIT sigma_T = %.3f us (target detection <= %.3f against \
       n <= %d)@."
      (sigma_t *. 1e6) vmax nmax
  in
  Cmd.v
    (Cmd.info "design" ~doc:"Recommend a VIT sigma_T for a security budget.")
    Term.(const run $ vmax_arg $ nmax_arg $ seed_arg)

let evaluate_cmd =
  let spec_conv parse print =
    Arg.conv
      ( (fun s -> Result.map_error (fun e -> `Msg e) (parse s)),
        fun ppf v -> Format.pp_print_string ppf (print v) )
  in
  let padding_arg =
    let parse s =
      match String.split_on_char ':' s with
      | [ "cit" ] -> Ok Linkpad.Cit
      | [ "vit"; us ] -> (
          match float_of_string_opt us with
          | Some v when v > 0.0 && Float.is_finite v ->
              Ok (Linkpad.Vit { sigma_t = v *. 1e-6 })
          | _ ->
              Error "vit sigma must be a positive finite number of microseconds")
      | _ -> Error "padding must be 'cit' or 'vit:SIGMA_US'"
    in
    let print = function
      | Linkpad.Cit -> "cit"
      | Linkpad.Vit { sigma_t } -> Printf.sprintf "vit:%g" (sigma_t *. 1e6)
    in
    let doc = "Padding scheme: 'cit' or 'vit:SIGMA_US'." in
    Arg.(value
         & opt (spec_conv parse print) Linkpad.Cit
         & info [ "padding" ] ~docv:"SCHEME" ~doc)
  in
  let where_arg =
    let parse s =
      match String.split_on_char ':' s with
      | [ "gw" ] -> Ok Linkpad.At_sender_gateway
      | [ "router"; u ] -> (
          match float_of_string_opt u with
          | Some u when u >= 0.0 && u < 1.0 ->
              Ok (Linkpad.Behind_lab_router { utilization = u })
          | _ -> Error "router utilization must be in [0, 1)")
      | _ -> Error "where must be 'gw' or 'router:UTIL'"
    in
    let print = function
      | Linkpad.At_sender_gateway -> "gw"
      | Linkpad.Behind_lab_router { utilization } ->
          Printf.sprintf "router:%g" utilization
      | Linkpad.Across_path _ -> "path"
    in
    let doc = "Observation point: 'gw' or 'router:UTIL'." in
    Arg.(value
         & opt (spec_conv parse print) Linkpad.At_sender_gateway
         & info [ "where" ] ~docv:"WHERE" ~doc)
  in
  let run padding observation n seed =
    let spec =
      {
        Linkpad.default_spec with
        Linkpad.padding;
        observation;
        sample_size = n;
        seed = Option.value seed ~default:42;
      }
    in
    Linkpad.pp_report fmt (Linkpad.evaluate spec)
  in
  Cmd.v
    (Cmd.info "evaluate" ~doc:"Evaluate a custom padding configuration.")
    Term.(const run $ padding_arg $ where_arg $ samples_arg $ seed_arg)

let setup_cmd =
  let run () =
    Scenarios.Calibration.print_setup fmt;
    let cal = Scenarios.Calibration.measure_gateway_sigmas () in
    Format.fprintf fmt
      "Calibrated gateway PIAT sigma: low %.3f us, high %.3f us (r = %.4f)@."
      (cal.Scenarios.Calibration.sigma_low *. 1e6)
      (cal.Scenarios.Calibration.sigma_high *. 1e6)
      cal.Scenarios.Calibration.r_hat;
    `Ok ()
  in
  Cmd.v
    (Cmd.info "setup" ~doc:"Print the experiment setup and calibration.")
    Term.(ret (const run $ const ()))

let all_cmd =
  let run scale seed csv_dir jobs trace metrics resilience =
    match apply_resilience resilience with
    | `Error _ as e -> e
    | `Ok () ->
    apply_jobs jobs;
    apply_trace trace;
    Scenarios.Calibration.print_setup fmt;
    let s = Option.value seed ~default:42_000 in
    ignore (Scenarios.Fig4a.run ~scale ~seed:(s + 1) ?csv_dir fmt);
    ignore (Scenarios.Fig4b.run ~scale ~seed:(s + 2) ?csv_dir fmt);
    ignore (Scenarios.Fig5a.run ~scale ~seed:(s + 3) ?csv_dir fmt);
    ignore (Scenarios.Fig5b.run ~seed:(s + 4) ?csv_dir fmt);
    ignore (Scenarios.Fig6.run ~scale ~seed:(s + 5) ?csv_dir fmt);
    ignore (Scenarios.Fig8.run ~scale ~seed:(s + 6) ~kind:Scenarios.Fig8.Campus ?csv_dir fmt);
    ignore (Scenarios.Fig8.run ~scale ~seed:(s + 7) ~kind:Scenarios.Fig8.Wan ?csv_dir fmt);
    ignore (Scenarios.Multirate.run ~scale ~seed:(s + 8) ?csv_dir fmt);
    finish_obs metrics;
    finish_partial ~resilience ~csv_dir;
    `Ok ()
  in
  Cmd.v
    (Cmd.info "all" ~doc:"Reproduce every figure in sequence.")
    Term.(
      ret
        (const run $ scale_arg $ seed_arg $ csv_arg $ jobs_arg $ trace_arg
       $ metrics_arg $ resilience_term))

let main_cmd =
  let doc = "traffic-analysis countermeasure laboratory (Fu et al., ICPP 2003)" in
  Cmd.group
    (Cmd.info "ta_lab" ~version:"1.0.0" ~doc)
    [
      setup_cmd; fig4a_cmd; fig4b_cmd; fig5a_cmd; fig5b_cmd; fig6_cmd;
      fig8a_cmd; fig8b_cmd; multirate_cmd; faults_cmd; fleet_cmd;
      ablations_cmd; theory_cmd; design_cmd; evaluate_cmd; all_cmd;
    ]

let () =
  (* Runtime I/O failures (unwritable --csv target, etc.) carry an
     actionable message already — print it like a CLI error instead of an
     uncaught-exception backtrace. *)
  match Cmd.eval_value ~catch:false main_cmd with
  | exception Sys_error msg ->
      Printf.eprintf "ta_lab: %s\n" msg;
      exit 125
  | exception (Scenarios.Starvation.Tap_starved _ as e) ->
      (* Commit whatever trace the dying run buffered — a partial trace is
         the post-mortem — then report with the metrics snapshot instead
         of an uncaught-exception backtrace.  Only reachable in --strict
         (or from unsupervised code paths): supervised sweeps contain the
         failure and exit 4 instead. *)
      Obs.Trace.flush ();
      Format.eprintf "ta_lab: ";
      ignore (Scenarios.Starvation.pp_starved Format.err_formatter e : bool);
      exit 3
  | exception Desim.Sim.Event_budget_exceeded { max_events } ->
      (* The strict-mode face of the event-budget watchdog: same
         deterministic-failure contract as starvation. *)
      Obs.Trace.flush ();
      Format.eprintf "ta_lab: simulation exceeded the --event-budget (%d events)@."
        max_events;
      exit 3
  | Ok (`Ok ()) | Ok `Help | Ok `Version -> exit 0
  (* Invalid CLI exits 2 across the repo (bench, talint, Arg-based
     tools); Cmdliner's default 124 would break that contract. *)
  | Error `Parse -> exit 2
  | Error `Term -> exit 2
  | Error `Exn -> exit Cmd.Exit.internal_error
