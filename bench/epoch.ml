(* Epoch-transition bench: wall-clock of [Tinygroups.Epoch.advance]
   at build_jobs = 1/2/4 per n, plus the raw [Group_graph.build_direct]
   fan-out at the stress-tier n (the ROADMAP "measure the [--jobs]
   fan-out on real multi-core" item) — with the jobs-determinism
   contract asserted on every pair of runs.

   Determinism is asserted unconditionally: the graphs, census
   history and metrics tables of a jobs=2/4 run must match the
   jobs=1 run exactly, benign or faulty. Speedup is asserted only
   when the recorded core count exceeds 1 — on a single-core
   container the domain fan-out can only add overhead, and the
   committed JSON records that honestly (the [cores] field tells the
   reader which regime produced the numbers).

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
  parse (List.tl (Array.to_list Sys.argv))

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

let run_epoch ~variant ~n ~jobs =
  let config =
    { (Tinygroups.Epoch.default_config ~n) with Tinygroups.Epoch.build_jobs = jobs }
  in
  let eh =
    Tinygroups.Epoch.init
      ~conditions:(conditions_of variant)
      (Prng.Rng.create cli.seed) config
  in
  let (), wall_s =
    time (fun () ->
        for _ = 1 to cli.epochs do
          Tinygroups.Epoch.advance eh
        done)
  in
  (eh, wall_s)

let graphs_match a b =
  Tinygroups.Group_graph.equal (Tinygroups.Epoch.primary a) (Tinygroups.Epoch.primary b)
  && (match (Tinygroups.Epoch.secondary a, Tinygroups.Epoch.secondary b) with
     | None, None -> true
     | Some ga, Some gb -> Tinygroups.Group_graph.equal ga gb
     | _ -> false)
  && Tinygroups.Epoch.history a = Tinygroups.Epoch.history b
  && Sim.Metrics.snapshot (Tinygroups.Epoch.metrics a)
     = Sim.Metrics.snapshot (Tinygroups.Epoch.metrics b)

type jobs_row = { jobs : int; wall_s : float }

type advance_row = {
  n : int;
  variant : string;
  rows : jobs_row list;
  deterministic : bool;
}

let advance_row ~variant n =
  let name = match variant with `Benign -> "benign" | `Masked -> "drop0.15xretry8" in
  let runs =
    List.map
      (fun jobs ->
        let eh, wall_s = run_epoch ~variant ~n ~jobs in
        (jobs, eh, wall_s))
      jobs_sweep
  in
  let _, ref_eh, _ = List.hd runs in
  let deterministic =
    List.for_all (fun (_, eh, _) -> graphs_match ref_eh eh) (List.tl runs)
  in
  if not deterministic then
    fail "advance not jobs-invariant at n=%d (%s, seed %d)" n name cli.seed;
  Printf.printf "advance n=%-6d %-16s %s det=ok\n%!" n name
    (String.concat " "
       (List.map (fun (j, _, w) -> Printf.sprintf "j%d=%.2fs" j w) runs));
  {
    n;
    variant = name;
    rows = List.map (fun (jobs, _, wall_s) -> { jobs; wall_s }) runs;
    deterministic;
  }

(* -- build_direct rows ---------------------------------------------- *)

let build_row n =
  let beta = 0.05 in
  let brng = Prng.Rng.create cli.seed in
  let runs =
    List.map
      (fun jobs ->
        let (_, g), wall_s =
          time (fun () ->
              Experiments.Common.build_tiny (Prng.Rng.copy brng) ~jobs ~n ~beta ())
        in
        (jobs, g, wall_s))
      jobs_sweep
  in
  let _, ref_g, _ = List.hd runs in
  let deterministic =
    List.for_all (fun (_, g, _) -> Tinygroups.Group_graph.equal ref_g g) (List.tl runs)
  in
  if not deterministic then fail "build_direct not jobs-invariant at n=%d" n;
  Printf.printf "build   n=%-7d %s det=ok\n%!" n
    (String.concat " "
       (List.map (fun (j, _, w) -> Printf.sprintf "j%d=%.2fs" j w) runs));
  {
    n;
    variant = "build_direct";
    rows = List.map (fun (jobs, _, wall_s) -> { jobs; wall_s }) runs;
    deterministic;
  }

(* -- report --------------------------------------------------------- *)

let wall_of row jobs =
  (List.find (fun r -> r.jobs = jobs) row.rows).wall_s

let speedup_j4 row = wall_of row 1 /. wall_of row 4

let row_json row =
  Printf.sprintf
    {|    {"n": %d, "variant": "%s", "jobs": [%s], "deterministic": %b, "speedup_j4": %.3f}|}
    row.n row.variant
    (String.concat ", "
       (List.map
          (fun r -> Printf.sprintf {|{"jobs": %d, "wall_s": %.3f}|} r.jobs r.wall_s)
          row.rows))
    row.deterministic (speedup_j4 row)

let () =
  let cores = Domain.recommended_domain_count () in
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
        if speedup_j4 row <= 1.0 then
          fail "%s n=%d: no speedup at 4 jobs on %d cores (j1=%.2fs j4=%.2fs)"
            what row.n cores (wall_of row 1) (wall_of row 4)
      in
      check "advance" (List.hd (List.rev adv_rows));
      check "build_direct" (List.hd (List.rev build_rows))
    end;
    let json =
      Printf.sprintf
        {|{
  "bench": "epoch",
  "scale": "%s",
  "seed": %d,
  "epochs_per_run": %d,
  "cores": %d,
  "notes": "wall_s per full advance loop (epochs_per_run transitions, paired graphs) resp. one build_direct; deterministic = graphs, history and metrics identical across jobs 1/2/4 (asserted). speedup_j4 = j1/j4 wall; asserted > 1 only when cores > 1 - on a single-core container the fan-out records its overhead honestly.",
  "advance": [
%s
  ],
  "build_direct": [
%s
  ]
}
|}
        cli.scale cli.seed cli.epochs cores
        (String.concat ",\n" (List.map row_json adv_rows))
        (String.concat ",\n" (List.map row_json build_rows))
    in
    let oc = open_out cli.out in
    output_string oc json;
    close_out oc;
    Printf.printf "wrote %s (cores=%d)\n" cli.out cores
  end
