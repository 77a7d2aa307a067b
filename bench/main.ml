(* The benchmark harness: regenerates every table/figure-equivalent of
   the paper (E0-E26, F1; see DESIGN.md §4 and EXPERIMENTS.md) and
   runs the Bechamel timing benches (B0-B11). The experiment list
   itself lives in Experiments.Registry — this file only drives it.

   Usage:
     dune exec bench/main.exe                       # everything, standard scale
     dune exec bench/main.exe -- --scale quick      # fast smoke run
     dune exec bench/main.exe -- --only e1,e5,f1    # a subset
     dune exec bench/main.exe -- --jobs 4           # parallel trials
     dune exec bench/main.exe -- --csv results      # also dump CSVs
     dune exec bench/main.exe -- --skip-timings     # tables only
     dune exec bench/main.exe -- --verbose          # protocol debug logs

   With --jobs > 1 each table experiment is also re-run at jobs=1 and
   the two wall-clocks (plus an output-equality check) are written to
   BENCH_parallel.json. *)

let usage =
  "usage: main.exe [--scale quick|standard|full|stress] [--only ID,...] [--seed INT] \
   [--jobs N>=1] [--csv DIR] [--skip-timings] [--verbose]"

let die msg =
  prerr_endline ("bench/main: " ^ msg ^ "; " ^ usage);
  exit 2

let int_arg flag v =
  match int_of_string_opt v with
  | Some i -> i
  | None -> die (Printf.sprintf "%s wants an integer, got %S" flag v)

let parse_args () =
  let scale = ref Experiments.Scale.Standard in
  let only = ref None in
  let skip_timings = ref false in
  let seed = ref 1 in
  let csv_dir = ref None in
  let verbose = ref false in
  let jobs = ref (Parallel.Pool.default_jobs ()) in
  let rec go = function
    | [] -> ()
    | "--scale" :: v :: rest ->
        (match Experiments.Scale.of_string v with
        | Some s -> scale := s
        | None -> die ("unknown scale " ^ v));
        go rest
    | "--only" :: v :: rest ->
        only := Some (String.split_on_char ',' (String.lowercase_ascii v));
        go rest
    | "--seed" :: v :: rest ->
        seed := int_arg "--seed" v;
        go rest
    | "--jobs" :: v :: rest ->
        let j = int_arg "--jobs" v in
        if j < 1 then die "--jobs must be >= 1";
        jobs := j;
        go rest
    | "--csv" :: dir :: rest ->
        csv_dir := Some dir;
        go rest
    | "--skip-timings" :: rest ->
        skip_timings := true;
        go rest
    | "--verbose" :: rest ->
        verbose := true;
        go rest
    | arg :: _ -> die ("unknown argument " ^ arg)
  in
  go (List.tl (Array.to_list Sys.argv));
  (!scale, !only, !skip_timings, !seed, !csv_dir, !verbose, !jobs)

(* One record per table experiment: wall-clock at the requested jobs
   count and at jobs=1, plus whether the rendered outputs matched. *)
let write_parallel_report path records ~jobs =
  Report.write path
    (Report.Obj
       [
         ("jobs", Report.Int jobs);
         ( "experiments",
           Report.List
             (List.map
                (fun (id, t_par, t_seq, identical) ->
                  Report.Obj
                    [
                      ("id", Report.String id);
                      ("seconds_jobs_n", Report.fixed 3 t_par);
                      ("seconds_jobs_1", Report.fixed 3 t_seq);
                      ("speedup", Report.fixed 2 (if t_par > 0. then t_seq /. t_par else 0.));
                      ("identical_output", Report.Bool identical);
                    ])
                records) );
       ])

let () =
  let scale, only, skip_timings, seed, csv_dir, verbose, jobs = parse_args () in
  if verbose then begin
    Logs.set_reporter (Logs_fmt.reporter ());
    Logs.set_level (Some Logs.Debug)
  end;
  let wanted id = match only with None -> true | Some ids -> List.mem id ids in
  Printf.printf
    "tinygroups benchmark harness — scale=%s seed=%d jobs=%d\n\
     (paper: Jaiyeola et al., Tiny Groups Tackle Byzantine Adversaries, IPDPS 2018)\n"
    (Experiments.Scale.to_string scale)
    seed jobs;
  let parallel_records = ref [] in
  List.iter
    (fun { Experiments.Registry.id; doc; kind } ->
      if wanted id then begin
        Printf.printf "\n### %s — %s\n%!" (String.uppercase_ascii id) doc;
        let t0 = Unix.gettimeofday () in
        let a0 = Gc.allocated_bytes () in
        let spec = { Experiments.Registry.id; doc; kind } in
        (match kind with
        | Experiments.Registry.Table _ | Experiments.Registry.Faulty _ ->
            let run ~jobs rng scale =
              Option.get (Experiments.Registry.run_table spec ~jobs rng scale)
            in
            let table = run ~jobs (Prng.Rng.create seed) scale in
            let elapsed = Unix.gettimeofday () -. t0 in
            Experiments.Table.print table;
            if jobs > 1 then begin
              (* Re-run sequentially: the wall-clock pair lands in
                 BENCH_parallel.json and the outputs must match. *)
              let t1 = Unix.gettimeofday () in
              let table_seq = run ~jobs:1 (Prng.Rng.create seed) scale in
              let t_seq = Unix.gettimeofday () -. t1 in
              let identical =
                String.equal
                  (Experiments.Table.render table)
                  (Experiments.Table.render table_seq)
              in
              if not identical then
                Printf.printf
                  "   [WARNING: jobs=%d output differs from jobs=1]\n" jobs;
              parallel_records := (id, elapsed, t_seq, identical) :: !parallel_records
            end;
            Option.iter
              (fun dir ->
                let path = Experiments.Table.save_csv table ~dir ~slug:id in
                Printf.printf "   [csv: %s]\n" path)
              csv_dir
        | Experiments.Registry.Text run -> print_string (run (Prng.Rng.create seed)));
        (* The allocation count is this domain's: exact at --jobs 1. *)
        Printf.printf "   [%s took %.1fs, %.1f MB allocated]\n%!" (String.uppercase_ascii id)
          (Unix.gettimeofday () -. t0)
          ((Gc.allocated_bytes () -. a0) /. 1e6)
      end)
    Experiments.Registry.all;
  (match List.rev !parallel_records with
  | [] -> ()
  | records ->
      let path = "BENCH_parallel.json" in
      write_parallel_report path records ~jobs;
      Printf.printf "\n[parallel report: %s]\n" path);
  if (not skip_timings) && (match only with None -> true | Some ids -> List.mem "timings" ids)
  then Timings.run ()
