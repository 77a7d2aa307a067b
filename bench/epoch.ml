(* Epoch-transition bench: wall-clock of [Tinygroups.Epoch.advance]
   at build_jobs = 1/2/4 per n, plus the raw [Group_graph.build_direct]
   fan-out at the stress-tier n (the ROADMAP "measure the [--jobs]
   fan-out on real multi-core" item) — with the jobs-determinism
   contract asserted on every pair of runs.

   Determinism is asserted unconditionally: the graphs, census
   history and metrics tables of a jobs=2/4 run must match the
   jobs=1 run exactly, benign or faulty. Speedup is measured at
   jobs = min(cores, 4), so the fan-out never oversubscribes the
   host, as the median j1/jN wall ratio of three back-to-back pairs
   (one slow host phase cannot sink it). It is asserted > 1 on the
   largest n of each kind only when the recorded core count exceeds
   1 — on a single-core container the domain fan-out can only add
   overhead (the [cores] field tells the reader which regime
   produced the numbers).

   Usage:
     dune exec bench/epoch.exe                       # stress tier -> BENCH_epoch.json
     dune exec bench/epoch.exe -- --scale quick --out BENCH_epoch_quick.json
     dune exec bench/epoch.exe -- --determinism-only # no timing, CI / seed sweeps
     dune exec bench/epoch.exe -- --seed 7 --epochs 2
*)

let jobs_sweep = [ 1; 2; 4 ]

type cli = {
  mutable scale : string;
  mutable seed : int;
  mutable epochs : int;
  mutable out : string;
  mutable determinism_only : bool;
}

let usage =
  "usage: epoch.exe [--scale quick|standard|stress] [--seed INT] [--epochs INT] [--out FILE] \
   [--determinism-only]"

let die msg =
  prerr_endline ("bench/epoch: " ^ msg ^ "; " ^ usage);
  exit 2

let int_arg flag v =
  match int_of_string_opt v with
  | Some i -> i
  | None -> die (Printf.sprintf "%s wants an integer, got %S" flag v)

let cli = { scale = "stress"; seed = 1; epochs = 1; out = "BENCH_epoch.json"; determinism_only = false }

let () =
  let rec parse = function
    | [] -> ()
    | "--scale" :: v :: rest ->
        cli.scale <- v;
        parse rest
    | "--seed" :: v :: rest ->
        cli.seed <- int_arg "--seed" v;
        parse rest
    | "--epochs" :: v :: rest ->
        cli.epochs <- int_arg "--epochs" v;
        parse rest
    | "--out" :: v :: rest ->
        cli.out <- v;
        parse rest
    | "--determinism-only" :: rest ->
        cli.determinism_only <- true;
        parse rest
    | arg :: _ -> die ("unknown argument " ^ arg)
  in
  parse (List.tl (Array.to_list Sys.argv));
  if not cli.determinism_only then
    match Report.check_writable cli.out with
    | Ok () -> ()
    | Error msg -> die ("--out " ^ msg)

(* Transition ns are far below the build_direct ns: one [advance]
   runs the full dual-search membership protocol for every leader
   (dozens of routed searches each), so a 2^12 transition already
   costs more than a 2^17 direct build. *)
let advance_ns, build_ns =
  match cli.scale with
  | "quick" -> ([ 256; 512 ], [ 16384; 32768 ])
  | "standard" -> ([ 512; 1024; 2048 ], [ 65536; 131072 ])
  | "stress" -> ([ 1024; 2048; 4096 ], [ 131072; 262144; 524288 ])
  | other -> die ("unknown scale " ^ other)

let time f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("FAIL: " ^ s); exit 1) fmt

(* -- advance rows --------------------------------------------------- *)

(* The faulty variant arms the full substream surface — drop faults
   masked by retries with circuit breaking — so the determinism
   assertion covers injector forks, tracker summaries and suspect
   marking, not just the PRNG re-keying. *)
let conditions_of = function
  | `Benign -> Sim.Conditions.none
  | `Masked ->
      Sim.Conditions.make
        ~faults:(Faults.Plan.with_seed (Faults.Plan.uniform ~drop:0.15 ()) 42L)
        ~reliability:
          (Reliability.Policy.make ~seed:42L ~max_retries:8 ~circuit_threshold:4 ())
        ()

let graphs_match a b =
  Tinygroups.Group_graph.equal (Tinygroups.Epoch.primary a) (Tinygroups.Epoch.primary b)
  && (match (Tinygroups.Epoch.secondary a, Tinygroups.Epoch.secondary b) with
     | None, None -> true
     | Some ga, Some gb -> Tinygroups.Group_graph.equal ga gb
     | _ -> false)
  && Tinygroups.Epoch.history a = Tinygroups.Epoch.history b
  && Sim.Metrics.snapshot (Tinygroups.Epoch.metrics a)
     = Sim.Metrics.snapshot (Tinygroups.Epoch.metrics b)

let cores = Domain.recommended_domain_count ()
let speedup_jobs = min cores 4

type row = {
  n : int;
  variant : string;
  walls : (int * float) list;  (* (jobs, wall_s) of the determinism sweep *)
  speedup : float;
}

let median xs = List.nth (List.sort compare xs) (List.length xs / 2)

(* One row: [run jobs] times a fresh run; the sweep asserts [same]
   on every jobs value against jobs=1, then (unless only determinism
   is wanted) three j1/jN pairs give the speedup. *)
let measure ~what ~n ~variant ~same run =
  let runs = List.map (fun jobs -> (jobs, run jobs)) jobs_sweep in
  let ref_v, _ = List.assoc 1 runs in
  if not (List.for_all (fun (_, (v, _)) -> same ref_v v) runs) then
    fail "%s not jobs-invariant at n=%d (%s, seed %d)" what n variant cli.seed;
  let walls = List.map (fun (jobs, (_, w)) -> (jobs, w)) runs in
  let ratios =
    if cli.determinism_only || speedup_jobs = 1 then []
    else
      List.init 3 (fun _ ->
          let _, w1 = run 1 in
          let _, wn = run speedup_jobs in
          w1 /. wn)
  in
  let speedup = if ratios = [] then 1.0 else median ratios in
  Printf.printf "%-7s n=%-7d %-16s %s det=ok%s\n%!" what n variant
    (String.concat " " (List.map (fun (j, w) -> Printf.sprintf "j%d=%.2fs" j w) walls))
    (if ratios = [] then ""
     else
       Printf.sprintf " speedup(j%d)=%.2f [%s]" speedup_jobs speedup
         (String.concat " " (List.map (Printf.sprintf "%.2f") ratios)));
  { n; variant; walls; speedup }

let advance_row ~variant n =
  let variant_name =
    match variant with `Benign -> "benign" | `Masked -> "drop0.15xretry8"
  in
  measure ~what:"advance" ~n ~variant:variant_name ~same:graphs_match (fun jobs ->
      let config =
        { (Tinygroups.Epoch.default_config ~n) with Tinygroups.Epoch.build_jobs = jobs }
      in
      let eh =
        Tinygroups.Epoch.init
          ~conditions:(conditions_of variant)
          (Prng.Rng.create cli.seed) config
      in
      time (fun () ->
          for _ = 1 to cli.epochs do
            Tinygroups.Epoch.advance eh
          done;
          eh))

let build_row n =
  let brng = Prng.Rng.create cli.seed in
  measure ~what:"build" ~n ~variant:"build_direct" ~same:Tinygroups.Group_graph.equal
    (fun jobs ->
      time (fun () ->
          snd (Experiments.Common.build_tiny (Prng.Rng.copy brng) ~jobs ~n ~beta:0.05 ())))

(* -- report --------------------------------------------------------- *)

let row_json row =
  Report.Obj
    [
      ("n", Report.Int row.n);
      ("variant", Report.String row.variant);
      ( "jobs",
        Report.List
          (List.map
             (fun (jobs, wall_s) ->
               Report.Obj [ ("jobs", Report.Int jobs); ("wall_s", Report.fixed 3 wall_s) ])
             row.walls) );
      ("deterministic", Report.Bool true);
      ("speedup", Report.fixed 3 row.speedup);
    ]

let () =
  if cli.determinism_only then begin
    (* Seed sweeps / CI smoke: every variant and jobs value, smallest
       sizes, assertions only. *)
    let n_adv = List.hd advance_ns in
    ignore (advance_row ~variant:`Benign n_adv);
    ignore (advance_row ~variant:`Masked n_adv);
    ignore (build_row (List.hd build_ns));
    Printf.printf "epoch jobs sweep deterministic (seed %d, n=%d)\n" cli.seed n_adv
  end
  else begin
    let adv_rows =
      List.concat_map
        (fun n ->
          (* The masked variant doubles the run; arm it on the
             smallest n only — the substream surface it covers is
             size-independent. *)
          let benign = advance_row ~variant:`Benign n in
          if n = List.hd advance_ns then [ benign; advance_row ~variant:`Masked n ]
          else [ benign ])
        advance_ns
    in
    let build_rows = List.map build_row build_ns in
    if cores > 1 then begin
      (* On real multi-core, the fan-out must pay for itself at the
         largest sizes; single-core containers only record overhead. *)
      let check what row =
        if row.speedup <= 1.0 then
          fail "%s n=%d: no speedup at %d jobs on %d cores (median j1/j%d = %.2f)" what
            row.n speedup_jobs cores speedup_jobs row.speedup
      in
      check "advance" (List.hd (List.rev adv_rows));
      check "build_direct" (List.hd (List.rev build_rows))
    end;
    Report.write cli.out
      (Report.Obj
         [
           ("bench", Report.String "epoch");
           ("scale", Report.String cli.scale);
           ("seed", Report.Int cli.seed);
           ("epochs_per_run", Report.Int cli.epochs);
           ("cores", Report.Int cores);
           ("speedup_jobs", Report.Int speedup_jobs);
           ( "notes",
             Report.String
               "wall_s per full advance loop (epochs_per_run transitions, paired \
                graphs) resp. one build_direct; deterministic = graphs, history and \
                metrics identical across jobs 1/2/4 (asserted). speedup = median \
                j1/jN wall ratio over three back-to-back pairs at N = speedup_jobs = \
                min(cores, 4); asserted > 1 on the largest n of each kind only when \
                cores > 1 - on a single-core container the fan-out records its \
                overhead honestly." );
           ("advance", Report.List (List.map row_json adv_rows));
           ("build_direct", Report.List (List.map row_json build_rows));
         ]);
    Printf.printf "wrote %s (cores=%d)\n" cli.out cores
  end
