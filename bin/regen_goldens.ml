(* Regenerate the golden-digest table consumed by
   test/test_experiments.ml: run every registry entry at Quick scale,
   seed 1, jobs 1, hash the rendered output, and rewrite the digest
   file in place.

   Usage:
     dune exec bin/regen_goldens.exe                       # writes test/golden_digests.txt
     dune exec bin/regen_goldens.exe -- --out FILE
     dune exec bin/regen_goldens.exe -- --jobs N           # fan entries over N domains
     dune exec bin/regen_goldens.exe -- --agreement-table  # print the E24 golden literal
     make regen-goldens

   Entries are independent (each gets its own fresh seed-1 stream and
   runs with jobs:1 internally — a 1-job inner pool is inline, so the
   outer fan-out nests safely), which makes the bulk regeneration an
   embarrassingly parallel map over Parallel.Pool. The digests are
   byte-identical at every --jobs value; only the wall clock moves.

   The rewrite is intentionally the only way to bless new digests in
   bulk: a digest change must arrive in a commit that also explains
   it (see the provenance appendix in EXPERIMENTS.md). *)

let scale = Experiments.Scale.Quick
let seed = 1

let render (spec : Experiments.Registry.spec) =
  match
    Experiments.Registry.run_table spec ~jobs:1 (Prng.Rng.create seed) scale
  with
  | Some table -> Experiments.Table.render table
  | None -> (
      match spec.Experiments.Registry.kind with
      | Experiments.Registry.Text run -> run (Prng.Rng.create seed)
      | _ -> failwith (spec.Experiments.Registry.id ^ ": no output"))

(* The E24 expected-message-count table as a paste-ready OCaml
   literal: the golden copy lives in test/test_agreement.ml and must
   be regenerated through this flag whenever a protocol's message
   schedule legitimately changes. *)
let print_agreement_table () =
  print_string "let golden_message_counts =\n  [\n";
  List.iter
    (fun (label, count) ->
      Printf.printf "    (%S, %d);\n" label count)
    (Experiments.Exp_agreement.message_count_rows ());
  print_string "  ]\n"

let usage = "usage: regen_goldens.exe [--out FILE] [--jobs N>=1] [--agreement-table]"

(* Bad input stops here, before anything is written. *)
let die msg =
  prerr_endline ("regen_goldens: " ^ msg ^ "; " ^ usage);
  exit 2

let () =
  let out = ref "test/golden_digests.txt" in
  let jobs = ref (Parallel.Pool.default_jobs ()) in
  let agreement_only = ref false in
  let rec go = function
    | [] -> ()
    | "--out" :: p :: rest ->
        out := p;
        go rest
    | "--jobs" :: n :: rest ->
        (match int_of_string_opt n with
        | Some j when j >= 1 -> jobs := j
        | _ -> die (Printf.sprintf "--jobs wants an integer >= 1, got %S" n));
        go rest
    | "--agreement-table" :: rest ->
        agreement_only := true;
        go rest
    | [ ("--out" | "--jobs") as flag ] -> die (flag ^ " wants a value")
    | arg :: _ -> die ("unknown argument " ^ arg)
  in
  go (List.tl (Array.to_list Sys.argv));
  if !agreement_only then print_agreement_table ()
  else begin
    let t0 = Unix.gettimeofday () in
    let rows =
      Parallel.Pool.with_pool ~jobs:!jobs (fun pool ->
          Parallel.Pool.map pool
            (fun spec ->
              let id = spec.Experiments.Registry.id in
              let t0 = Unix.gettimeofday () in
              let digest = Hashing.Sha256.(to_hex (digest_string (render spec))) in
              (id, digest, Unix.gettimeofday () -. t0))
            Experiments.Registry.all)
    in
    List.iter
      (fun (id, digest, dt) -> Printf.printf "%-4s %s  (%.1fs)\n%!" id digest dt)
      rows;
    let oc = open_out !out in
    Printf.fprintf oc
      "# Golden SHA-256 digests of each experiment's rendered output at\n\
       # (Quick scale, seed 1, jobs 1), one `id digest` pair per line.\n\
       # Consumed by test/test_experiments.ml; regenerate in bulk with\n\
       # `make regen-goldens` and record the cause of every change in\n\
       # the provenance appendix of EXPERIMENTS.md.\n";
    List.iter (fun (id, digest, _) -> Printf.fprintf oc "%s %s\n" id digest) rows;
    close_out oc;
    Printf.printf "[%d digests written to %s in %.1fs at --jobs %d]\n"
      (List.length rows) !out
      (Unix.gettimeofday () -. t0)
      !jobs
  end
