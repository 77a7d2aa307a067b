(* The `tinygroups` command-line driver: run any experiment of the
   reproduction individually. `dune exec bin/tinygroups_cli.exe --
   <command> [options]`. The per-experiment subcommands (and `all`)
   are generated from Experiments.Registry, the single source of
   experiment ids. *)

open Cmdliner

(* Range-checked argument converters: bad input should die as a
   one-line usage error at parse time, not as a silent clamp or an
   Invalid_argument backtrace out of a constructor mid-run. *)
let int_at_least_conv lo =
  let parse s =
    match int_of_string_opt s with
    | Some v when v >= lo -> Ok v
    | Some _ -> Error (`Msg (Printf.sprintf "%s: must be >= %d" s lo))
    | None -> Error (`Msg (Printf.sprintf "%s: expected an integer >= %d" s lo))
  in
  Arg.conv (parse, Format.pp_print_int)

let nonneg_int_conv = int_at_least_conv 0

let seed_arg =
  let doc = "PRNG seed; every run is a pure function of it." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

let scale_arg =
  let doc = "Experiment scale: quick, standard, full or stress." in
  let parse s =
    match Experiments.Scale.of_string s with
    | Some v -> Ok v
    | None -> Error (`Msg ("unknown scale: " ^ s))
  in
  let print fmt s = Format.pp_print_string fmt (Experiments.Scale.to_string s) in
  Arg.(
    value
    & opt (conv (parse, print)) Experiments.Scale.Standard
    & info [ "scale" ] ~docv:"SCALE" ~doc)

let jobs_arg =
  let doc =
    "Worker domains for per-trial parallelism. Output is identical for every \
     value under the same seed (default: the number of cores)."
  in
  Arg.(
    value
    & opt (int_at_least_conv 1) (Parallel.Pool.default_jobs ())
    & info [ "jobs"; "j" ] ~docv:"N" ~doc)

(* [--out] of the commands that publish a BENCH_* artefact. The path
   is checked while parsing, so an unwritable one fails before the
   run rather than after it. *)
let out_arg =
  let parse path =
    Result.map (fun () -> path) (Report.check_writable path)
    |> Result.map_error (fun msg -> `Msg msg)
  in
  Arg.(
    value
    & opt (some (conv (parse, Format.pp_print_string))) None
    & info [ "out" ] ~docv:"PATH" ~doc:"Write the report as JSON to $(docv).")

let write_out out json =
  Option.iter
    (fun path ->
      Report.write path json;
      Printf.printf "wrote %s\n" path)
    out

let probability_conv =
  let parse s =
    match float_of_string_opt s with
    | Some p when p >= 0. && p <= 1. -> Ok p
    | Some _ -> Error (`Msg (s ^ ": probability must lie in [0,1]"))
    | None -> Error (`Msg (s ^ ": expected a probability in [0,1]"))
  in
  Arg.conv (parse, Format.pp_print_float)

let fraction_conv =
  let parse s =
    match float_of_string_opt s with
    | Some p when p >= 0. && p < 1. -> Ok p
    | Some _ -> Error (`Msg (s ^ ": must lie in [0,1)"))
    | None -> Error (`Msg (s ^ ": expected a fraction in [0,1)"))
  in
  Arg.conv (parse, Format.pp_print_float)

let multiplier_conv =
  let parse s =
    match float_of_string_opt s with
    | Some v when v >= 1. -> Ok v
    | Some _ -> Error (`Msg (s ^ ": backoff multiplier must be >= 1"))
    | None -> Error (`Msg (s ^ ": expected a factor >= 1"))
  in
  Arg.conv (parse, Format.pp_print_float)

(* Fault-plan flags, attached to every [Faulty] registry entry. All
   of them together build one uniform plan; omitting them all means
   "no fault injection". *)
let fault_drop_arg =
  let doc = "Per-message drop probability of the fault plan." in
  Arg.(value & opt probability_conv 0. & info [ "fault-drop" ] ~docv:"P" ~doc)

let fault_dup_arg =
  let doc = "Per-message duplication probability of the fault plan." in
  Arg.(value & opt probability_conv 0. & info [ "fault-dup" ] ~docv:"P" ~doc)

let fault_delay_arg =
  let doc = "Per-message extra-delay probability of the fault plan." in
  Arg.(value & opt probability_conv 0. & info [ "fault-delay" ] ~docv:"P" ~doc)

let fault_delay_ms_arg =
  let doc = "Upper bound (ms) of the uniform extra delay." in
  Arg.(value & opt nonneg_int_conv 100 & info [ "fault-delay-ms" ] ~docv:"MS" ~doc)

let fault_reorder_arg =
  let doc = "Per-message reorder (deferral) probability of the fault plan." in
  Arg.(value & opt probability_conv 0. & info [ "fault-reorder" ] ~docv:"P" ~doc)

let fault_seed_arg =
  let doc =
    "Seed of the fault schedule (independent of --seed, so a failing \
     schedule can be replayed under any simulation seed)."
  in
  Arg.(value & opt int 0 & info [ "fault-seed" ] ~docv:"N" ~doc)

let fault_plan_term =
  let build drop dup delay delay_ms reorder fseed =
    if drop = 0. && dup = 0. && delay = 0. && reorder = 0. then None
    else
      Some
        (Faults.Plan.with_seed
           (Faults.Plan.uniform ~drop ~duplicate:dup ~delay ~delay_ms:(1, max 1 delay_ms)
              ~reorder ())
           (Int64.of_int fseed))
  in
  Term.(
    const build $ fault_drop_arg $ fault_dup_arg $ fault_delay_arg $ fault_delay_ms_arg
    $ fault_reorder_arg $ fault_seed_arg)

(* Retry-policy flags, attached alongside the fault flags. A zero
   --retry-max (the default) means "no reliability layer" — which the
   zero-retry anchor makes indistinguishable from a budget-0 policy
   anyway. *)
let retry_max_arg =
  let doc = "Retry budget: extra delivery attempts after the first (0 disables)." in
  Arg.(value & opt nonneg_int_conv 0 & info [ "retry-max" ] ~docv:"N" ~doc)

let retry_backoff_arg =
  let doc = "Backoff (ms) before the first retry." in
  Arg.(value & opt nonneg_int_conv 10 & info [ "retry-backoff-ms" ] ~docv:"MS" ~doc)

let retry_multiplier_arg =
  let doc = "Exponential backoff growth factor (>= 1)." in
  Arg.(value & opt multiplier_conv 2. & info [ "retry-multiplier" ] ~docv:"X" ~doc)

let retry_max_backoff_arg =
  let doc = "Cap (ms) on the deterministic backoff." in
  Arg.(value & opt nonneg_int_conv 2000 & info [ "retry-max-backoff-ms" ] ~docv:"MS" ~doc)

let retry_jitter_arg =
  let doc = "Uniform jitter bound (ms) added per retry." in
  Arg.(value & opt nonneg_int_conv 5 & info [ "retry-jitter-ms" ] ~docv:"MS" ~doc)

let retry_circuit_arg =
  let doc =
    "Consecutive exhausted budgets that open a destination's circuit (0 disables)."
  in
  Arg.(value & opt nonneg_int_conv 0 & info [ "retry-circuit" ] ~docv:"N" ~doc)

let retry_seed_arg =
  let doc = "Seed of the retry jitter stream (independent of --seed)." in
  Arg.(value & opt nonneg_int_conv 0 & info [ "retry-seed" ] ~docv:"N" ~doc)

let retry_policy_term =
  let build maxr backoff mult max_backoff jitter circuit rseed =
    if maxr = 0 then Ok None
    else
      match
        Reliability.Policy.make ~seed:(Int64.of_int rseed) ~max_retries:maxr
          ~base_backoff_ms:backoff ~multiplier:mult ~max_backoff_ms:max_backoff
          ~jitter_ms:jitter ~circuit_threshold:circuit ()
      with
      | policy -> Ok (Some policy)
      | exception Invalid_argument msg -> Error (`Msg msg)
  in
  Term.(
    term_result
      (const build $ retry_max_arg $ retry_backoff_arg $ retry_multiplier_arg
     $ retry_max_backoff_arg $ retry_jitter_arg $ retry_circuit_arg $ retry_seed_arg))

let run_spec spec seed scale jobs =
  match spec.Experiments.Registry.kind with
  | Experiments.Registry.Table _ | Experiments.Registry.Faulty _ ->
      Option.iter Experiments.Table.print
        (Experiments.Registry.run_table spec ~jobs (Prng.Rng.create seed) scale)
  | Experiments.Registry.Text run -> print_string (run (Prng.Rng.create seed))

(* Combine the fault-plan and retry-policy flag groups into one
   {!Sim.Conditions.t} — the only shape the registry accepts. *)
let conditions_term =
  Term.(
    const (fun faults reliability -> Sim.Conditions.make ?faults ?reliability ())
    $ fault_plan_term $ retry_policy_term)

let run_faulty_spec spec seed scale jobs conditions =
  Option.iter Experiments.Table.print
    (Experiments.Registry.run_table spec ~jobs ~conditions
       (Prng.Rng.create seed) scale)

let experiment_cmd spec =
  let term =
    match spec.Experiments.Registry.kind with
    | Experiments.Registry.Faulty _ ->
        Term.(
          const (run_faulty_spec spec) $ seed_arg $ scale_arg $ jobs_arg
          $ conditions_term)
    | _ -> Term.(const (run_spec spec) $ seed_arg $ scale_arg $ jobs_arg)
  in
  Cmd.v (Cmd.info spec.Experiments.Registry.id ~doc:spec.Experiments.Registry.doc) term

let epochs_cmd =
  let doc = "Run the two-graph epoch protocol and print per-epoch health." in
  let n_arg =
    Arg.(
      value
      & opt (int_at_least_conv 3) 1024
      & info [ "n" ] ~docv:"N" ~doc:"System size (>= 3).")
  in
  let beta_arg =
    Arg.(
      value
      & opt fraction_conv 0.05
      & info [ "beta" ] ~docv:"BETA" ~doc:"Adversary share, in [0,1).")
  in
  let epochs_arg =
    Arg.(
      value & opt nonneg_int_conv 6 & info [ "epochs" ] ~docv:"E" ~doc:"Epochs to run.")
  in
  let single_arg =
    Arg.(value & flag & info [ "single" ] ~doc:"Use the naive single-graph ablation.")
  in
  let run seed n beta epochs single =
    let mode = if single then Tinygroups.Epoch.Single else Tinygroups.Epoch.Paired in
    let rows =
      Experiments.Exp_dynamic.run_epochs (Prng.Rng.create seed) ~mode ~n ~beta ~epochs
        ~searches:1000
    in
    Printf.printf "%-6s %-6s %-6s %-9s %-9s %s\n" "epoch" "good" "weak" "hijacked"
      "confused" "success";
    List.iter
      (fun (epoch, (c : Tinygroups.Group_graph.census), s) ->
        Printf.printf "%-6d %-6d %-6d %-9d %-9d %.2f%%\n" epoch c.good c.weak c.hijacked_
          c.confused_ (100. *. s))
      rows
  in
  Cmd.v
    (Cmd.info "epochs" ~doc)
    Term.(const run $ seed_arg $ n_arg $ beta_arg $ epochs_arg $ single_arg)

let serve_cmd =
  let doc =
    "Run the closed-loop KV serving tier (E23) and optionally write the JSON \
     benchmark artifact (the committed BENCH_serve.json)."
  in
  let run seed scale jobs conditions out =
    let report =
      Experiments.Exp_serve.run ~jobs ~conditions (Prng.Rng.create seed) scale
    in
    Experiments.Table.print (Experiments.Exp_serve.to_table report);
    write_out out (Experiments.Exp_serve.to_json report)
  in
  Cmd.v
    (Cmd.info "serve" ~doc)
    Term.(const run $ seed_arg $ scale_arg $ jobs_arg $ conditions_term $ out_arg)

let scale_cmd =
  let doc =
    "Run the stress scale tier (E25) and optionally write the JSON benchmark \
     artifact (the committed BENCH_scale.json)."
  in
  let run seed scale jobs out =
    let report = Experiments.Exp_scale.run ~jobs (Prng.Rng.create seed) scale in
    Experiments.Table.print (Experiments.Exp_scale.to_table report);
    write_out out (Experiments.Exp_scale.to_json report)
  in
  Cmd.v
    (Cmd.info "scale" ~doc)
    Term.(const run $ seed_arg $ scale_arg $ jobs_arg $ out_arg)

let pow_cmd =
  let doc =
    "Run the PoW difficulty-controller sweep (E26) with tunable controller and \
     adversary knobs, and optionally write the JSON benchmark artifact (the \
     committed BENCH_pow.json)."
  in
  let floor_shift_arg =
    Arg.(
      value
      & opt (some nonneg_int_conv) None
      & info [ "pow-floor-shift" ] ~docv:"S"
          ~doc:"Competitive floor: prices never drop below (T/2) / 2^$(docv).")
  in
  let ceiling_arg =
    Arg.(
      value
      & opt (some nonneg_int_conv) None
      & info [ "pow-ceiling" ] ~docv:"C"
          ~doc:"Competitive cap: prices never exceed $(docv) x T/2.")
  in
  let subrounds_arg =
    Arg.(
      value
      & opt (some nonneg_int_conv) None
      & info [ "pow-subrounds" ] ~docv:"R"
          ~doc:"Re-pricing rounds per admission window.")
  in
  let slack_arg =
    Arg.(
      value
      & opt (some probability_conv) None
      & info [ "pow-slack" ] ~docv:"F"
          ~doc:
            "Un-ticketed admission capacity per window, as a fraction of the \
             good population.")
  in
  let burst_period_arg =
    Arg.(
      value
      & opt (some nonneg_int_conv) None
      & info [ "pow-burst-period" ] ~docv:"P"
          ~doc:"Bursty schedule: cycle length in epochs.")
  in
  let burst_active_arg =
    Arg.(
      value
      & opt (some nonneg_int_conv) None
      & info [ "pow-burst-active" ] ~docv:"A"
          ~doc:"Bursty schedule: active epochs per cycle.")
  in
  let stockpile_arg =
    Arg.(
      value
      & opt (some nonneg_int_conv) None
      & info [ "pow-stockpile" ] ~docv:"K"
          ~doc:
            "Bursty schedule: savings multiplier on the per-epoch budget \
             (Lemma 11 admits up to 3).")
  in
  let probe_num_arg =
    Arg.(
      value
      & opt (some nonneg_int_conv) None
      & info [ "pow-probe-num" ] ~docv:"NUM"
          ~doc:
            "Probing schedule: buy only while price <= NUM/DEN of the fixed \
             T/2 (numerator).")
  in
  let probe_den_arg =
    Arg.(
      value
      & opt (some nonneg_int_conv) None
      & info [ "pow-probe-den" ] ~docv:"DEN"
          ~doc:"Probing schedule: denominator of the price threshold.")
  in
  let run seed scale jobs out floor_shift ceiling subrounds slack burst_period
      burst_active stockpile probe_num probe_den =
    let k = Experiments.Exp_pow_epochs.default_knobs scale in
    let upd v f = Option.fold ~none:Fun.id ~some:f v in
    let k =
      k
      |> upd floor_shift (fun v k -> { k with Experiments.Exp_pow_epochs.floor_shift = v })
      |> upd ceiling (fun v k -> { k with Experiments.Exp_pow_epochs.ceiling_factor = v })
      |> upd subrounds (fun v k -> { k with Experiments.Exp_pow_epochs.subrounds = v })
      |> upd slack (fun v k -> { k with Experiments.Exp_pow_epochs.admission_slack = v })
      |> upd burst_period (fun v k -> { k with Experiments.Exp_pow_epochs.burst_period = v })
      |> upd burst_active (fun v k -> { k with Experiments.Exp_pow_epochs.burst_active = v })
      |> upd stockpile (fun v k -> { k with Experiments.Exp_pow_epochs.stockpile = v })
      |> upd probe_num (fun v k -> { k with Experiments.Exp_pow_epochs.probe_num = v })
      |> upd probe_den (fun v k -> { k with Experiments.Exp_pow_epochs.probe_den = v })
    in
    match
      Experiments.Exp_pow_epochs.run ~jobs ~knobs:k (Prng.Rng.create seed) scale
    with
    | report ->
        Experiments.Table.print (Experiments.Exp_pow_epochs.to_table report);
        write_out out (Experiments.Exp_pow_epochs.to_json report);
        Ok ()
    | exception Invalid_argument msg -> Error (`Msg msg)
  in
  Cmd.v
    (Cmd.info "pow" ~doc)
    Term.(
      term_result
        (const run $ seed_arg $ scale_arg $ jobs_arg $ out_arg $ floor_shift_arg
       $ ceiling_arg $ subrounds_arg $ slack_arg $ burst_period_arg
       $ burst_active_arg $ stockpile_arg $ probe_num_arg $ probe_den_arg))

let all_cmd =
  let doc = "Run every experiment in the registry (E0-E26 and F1)." in
  let run seed scale jobs =
    List.iter
      (fun spec -> run_spec spec seed scale jobs)
      Experiments.Registry.all
  in
  Cmd.v (Cmd.info "all" ~doc) Term.(const run $ seed_arg $ scale_arg $ jobs_arg)

let () =
  let doc =
    "Reproduction of 'Tiny Groups Tackle Byzantine Adversaries' (Jaiyeola et al., \
     IPDPS 2018)."
  in
  let info = Cmd.info "tinygroups" ~version:"1.0.0" ~doc in
  let cmds =
    List.map experiment_cmd Experiments.Registry.all
    @ [ epochs_cmd; serve_cmd; scale_cmd; pow_cmd; all_cmd ]
  in
  exit (Cmd.eval (Cmd.group info cmds))
