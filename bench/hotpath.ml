(* Hot-path harness: wall-clock and GC allocation per core operation
   of the simulation substrate (ring queries, group formation, graph
   build, secure search) plus the three heaviest end-to-end
   experiments (e20/e21/e22 at quick scale, jobs 1).

   Every row lands in a JSON report (default BENCH_hotpath.json).
   [baseline] below holds the same measurements taken on the commit
   immediately before the digest-regeneration PR (b8f348d —
   flat-array ring, legacy-order shims still in place, boxed-Int64
   chord++ coins), re-measured in a side worktree with baseline and
   current runs interleaved A/B on the same single-core container
   (per-row median of 3 pairs; wall-clock noise on this box is ~±8%,
   so only same-window interleaved medians give a fair before/after
   pairing — single runs jitter more than any real jobs=1 delta).
   The emitted report carries before/after pairs and speedups
   without needing the old code around.

   Usage:
     dune exec bench/hotpath.exe                 # writes BENCH_hotpath.json
     dune exec bench/hotpath.exe -- --out F.json
     dune exec bench/hotpath.exe -- --no-e2e     # micro-ops only (CI smoke)
     dune exec bench/hotpath.exe -- --capture    # 3 passes; prints the
                                                 # per-row medians as a
                                                 # paste-ready [baseline]
                                                 # literal for this file
     dune exec bench/hotpath.exe -- --capture --reps 5
*)

let rng = Prng.Rng.create 4242

type row = {
  op : string;
  iters : int;
  ns_per_op : float;
  bytes_per_op : float;
}

(* Measured on the pre-overhaul implementation; an empty list makes
   the report emit measured rows only (used when (re)capturing). *)
let baseline : (string * (float * float)) list =
  (* (op, (ns_per_op, bytes_per_op)) *)
  [
    ("ring-successor", (183.4, 0.0));
    ("ring-random-member", (33.3, 167.8));
    ("group-formation", (30004.1, 19820.1));
    ("graph-build-n2048", (60.16e6, 40.26e6));
    ("secure-search", (4255.7, 2198.7));
    ("e4", (0.691e9, 487.0e6));
    ("e10", (0.496e9, 334.8e6));
    ("e17", (0.812e9, 1121.4e6));
    ("e20", (4.585e9, 3596.3e6));
    ("e21", (2.798e9, 2421.7e6));
    ("e22", (4.063e9, 3368.2e6));
  ]

let time_alloc ~iters f =
  (* One warmup call keeps lazy setup (caches, oracle tables) out of
     the measured window. *)
  f ();
  let a0 = Gc.allocated_bytes () in
  let t0 = Unix.gettimeofday () in
  for _ = 2 to iters do
    f ()
  done;
  let dt = Unix.gettimeofday () -. t0 in
  let da = Gc.allocated_bytes () -. a0 in
  let n = float_of_int (max 1 (iters - 1)) in
  (dt *. 1e9 /. n, da /. n)

let measure ~op ~iters f =
  let ns_per_op, bytes_per_op = time_alloc ~iters f in
  Printf.printf "%-24s %12.1f ns/op %14.1f bytes/op\n%!" op ns_per_op bytes_per_op;
  { op; iters; ns_per_op; bytes_per_op }

(* -- micro-ops ---------------------------------------------------- *)

let ring_ops () =
  let ring = Idspace.Ring.populate (Prng.Rng.split rng) 4096 in
  let keys = Array.init 4096 (fun _ -> Idspace.Point.random rng) in
  let i = ref 0 in
  let r = Prng.Rng.split rng in
  let successor =
    measure ~op:"ring-successor" ~iters:200_000 (fun () ->
        incr i;
        ignore (Idspace.Ring.successor_exn ring keys.(!i land 4095)))
  in
  let random_member =
    measure ~op:"ring-random-member" ~iters:200_000 (fun () ->
        ignore (Idspace.Ring.random_member r ring))
  in
  [ successor; random_member ]

let formation_ops () =
  let pop =
    Adversary.Population.generate (Prng.Rng.split rng) ~n:2048 ~beta:0.05
      ~strategy:Adversary.Placement.Uniform
  in
  let ring = Adversary.Population.ring pop in
  let params = Tinygroups.Params.default in
  let r = Prng.Rng.split rng in
  (* The real build path: the shared builder [build_direct] itself
     runs (scratch-buffer draws, in-place sort/dedup). *)
  let builder =
    Tinygroups.Group_graph.Builder.create ~params ~population:pop
      ~member_oracle:Experiments.Common.h1
  in
  let formation =
    measure ~op:"group-formation" ~iters:20_000 (fun () ->
        let w = Idspace.Point.random r in
        ignore (Tinygroups.Group_graph.Builder.form_group builder w))
  in
  let build =
    measure ~op:"graph-build-n2048" ~iters:5 (fun () ->
        let overlay = Overlay.Chord.make ring in
        ignore
          (Tinygroups.Group_graph.build_direct ~params ~population:pop ~overlay
             ~member_oracle:Experiments.Common.h1 ()))
  in
  [ formation; build ]

let search_ops () =
  let _, g = Experiments.Common.build_tiny rng ~n:2048 ~beta:0.05 () in
  let leaders = Tinygroups.Group_graph.leaders g in
  let r = Prng.Rng.split rng in
  [
    measure ~op:"secure-search" ~iters:50_000 (fun () ->
        let src = leaders.(Prng.Rng.int r (Array.length leaders)) in
        let key = Idspace.Point.random r in
        ignore (Tinygroups.Secure_route.search g ~failure:`Majority ~src ~key));
  ]

(* -- end-to-end --------------------------------------------------- *)

let e2e_row id =
  match Experiments.Registry.find id with
  | None -> invalid_arg ("hotpath: unknown experiment " ^ id)
  | Some spec ->
      let a0 = Gc.allocated_bytes () in
      let t0 = Unix.gettimeofday () in
      (match
         Experiments.Registry.run_table spec ~jobs:1 (Prng.Rng.create 1)
           Experiments.Scale.Quick
       with
      | Some table -> ignore (Experiments.Table.render table)
      | None -> ());
      let dt = Unix.gettimeofday () -. t0 in
      let da = Gc.allocated_bytes () -. a0 in
      Printf.printf "%-24s %12.3f s      %11.1f MB allocated\n%!" id dt (da /. 1e6);
      { op = id; iters = 1; ns_per_op = dt *. 1e9; bytes_per_op = da }

(* -- report ------------------------------------------------------- *)

let emit_json path rows =
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"scale\": \"quick\",\n  \"jobs\": 1,\n  \"rows\": [\n";
  List.iteri
    (fun i r ->
      let before = List.assoc_opt r.op baseline in
      let sep = if i = List.length rows - 1 then "" else "," in
      match before with
      | Some (b_ns, b_bytes) ->
          Printf.fprintf oc
            "    {\"op\": \"%s\", \"iters\": %d, \"ns_per_op\": %.1f, \
             \"bytes_per_op\": %.1f, \"before_ns_per_op\": %.1f, \
             \"before_bytes_per_op\": %.1f, \"speedup\": %.2f, \
             \"alloc_ratio\": %.2f}%s\n"
            r.op r.iters r.ns_per_op r.bytes_per_op b_ns b_bytes
            (if r.ns_per_op > 0. then b_ns /. r.ns_per_op else 0.)
            (if b_bytes > 0. then r.bytes_per_op /. b_bytes else 0.)
            sep
      | None ->
          Printf.fprintf oc
            "    {\"op\": \"%s\", \"iters\": %d, \"ns_per_op\": %.1f, \
             \"bytes_per_op\": %.1f}%s\n"
            r.op r.iters r.ns_per_op r.bytes_per_op sep)
    rows;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Printf.printf "[hotpath report: %s]\n" path

(* --capture support: re-measure the suite a few times and print the
   per-row medians as OCaml source, ready to paste over [baseline]
   above when a perf PR resets the reference point. Medians across
   passes because single runs jitter (see the header comment); the
   passes run back to back in one process, which is as interleaved as
   a single-binary capture can get. *)
let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

let print_baseline_literal passes =
  let ops =
    List.map (fun r -> r.op) (List.hd passes)
  in
  Printf.printf "\n(* Captured %d-pass medians; paste over [baseline]: *)\n"
    (List.length passes);
  Printf.printf "let baseline : (string * (float * float)) list =\n";
  Printf.printf "  (* (op, (ns_per_op, bytes_per_op)) *)\n  [\n";
  List.iter
    (fun op ->
      let of_pass sel =
        median
          (List.filter_map
             (fun rows ->
               List.find_opt (fun r -> r.op = op) rows |> Option.map sel)
             passes)
      in
      let ns = of_pass (fun r -> r.ns_per_op)
      and bytes = of_pass (fun r -> r.bytes_per_op) in
      Printf.printf "    (%S, (%.1f, %.1f));\n" op ns bytes)
    ops;
  Printf.printf "  ]\n%!"

let usage = "usage: hotpath.exe [--out FILE] [--no-e2e] [--capture] [--reps INT]"

let die msg =
  prerr_endline ("bench/hotpath: " ^ msg ^ "; " ^ usage);
  exit 2

let () =
  let out = ref "BENCH_hotpath.json" in
  let e2e = ref true in
  let capture = ref false in
  let reps = ref 3 in
  let rec go = function
    | [] -> ()
    | "--out" :: p :: rest ->
        out := p;
        go rest
    | "--no-e2e" :: rest ->
        e2e := false;
        go rest
    | "--capture" :: rest ->
        capture := true;
        go rest
    | "--reps" :: n :: rest ->
        (match int_of_string_opt n with
        | Some r -> reps := max 1 r
        | None -> die (Printf.sprintf "--reps wants an integer, got %S" n));
        go rest
    | arg :: _ -> die ("unknown argument " ^ arg)
  in
  go (List.tl (Array.to_list Sys.argv));
  Printf.printf "== hot-path benches (quick scale, jobs 1)\n%!";
  let one_pass () =
    (* [@] argument evaluation order is unspecified; bind each block so
       the rows run (and print) in reading order. *)
    let ring_rows = ring_ops () in
    let formation_rows = formation_ops () in
    let search_rows = search_ops () in
    let e2e_rows =
      if !e2e then List.map e2e_row [ "e4"; "e10"; "e17"; "e20"; "e21"; "e22" ]
      else []
    in
    ring_rows @ formation_rows @ search_rows @ e2e_rows
  in
  if not !capture then emit_json !out (one_pass ())
  else begin
    let passes =
      List.init !reps (fun i ->
          Printf.printf "-- capture pass %d/%d\n%!" (i + 1) !reps;
          one_pass ())
    in
    emit_json !out (List.hd passes);
    print_baseline_literal passes
  end
