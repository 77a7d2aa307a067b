(* The Domain pool, deterministic fan-out, and the jobs-invariance of
   the experiment layer: the same seed must yield byte-identical
   experiment tables whatever --jobs is. *)

let test_pool_map_order () =
  Parallel.Pool.with_pool ~jobs:4 (fun pool ->
      let out = Parallel.Pool.map pool (fun x -> x * x) [ 1; 2; 3; 4; 5; 6; 7 ] in
      Alcotest.(check (list int)) "input order" [ 1; 4; 9; 16; 25; 36; 49 ] out)

let test_pool_empty () =
  Parallel.Pool.with_pool ~jobs:3 (fun pool ->
      Alcotest.(check (list int)) "empty input" [] (Parallel.Pool.map pool succ []))

let test_pool_more_jobs_than_items () =
  Parallel.Pool.with_pool ~jobs:8 (fun pool ->
      Alcotest.(check (list int))
        "jobs > items" [ 2; 3 ]
        (Parallel.Pool.map pool succ [ 1; 2 ]))

exception Boom of int

let test_pool_exception () =
  Parallel.Pool.with_pool ~jobs:4 (fun pool ->
      match
        Parallel.Pool.map pool
          (fun x -> if x mod 3 = 0 then raise (Boom x) else x)
          [ 1; 2; 3; 4; 5; 6 ]
      with
      | _ -> Alcotest.fail "expected an exception"
      | exception Boom x ->
          (* The earliest failing index wins, deterministically. *)
          Alcotest.(check int) "earliest failure" 3 x);
  (* The pool survives a failed batch. *)
  Parallel.Pool.with_pool ~jobs:4 (fun pool ->
      Alcotest.(check (list int))
        "pool usable after raise" [ 2; 4; 6 ]
        (Parallel.Pool.map pool (fun x -> 2 * x) [ 1; 2; 3 ]))

let test_pool_reuse_after_exception_same_pool () =
  Parallel.Pool.with_pool ~jobs:2 (fun pool ->
      (match Parallel.Pool.map pool (fun _ -> failwith "boom") [ 1 ] with
      | _ -> Alcotest.fail "expected an exception"
      | exception Failure _ -> ());
      Alcotest.(check (list int))
        "same pool, next batch" [ 10 ]
        (Parallel.Pool.map pool (fun x -> 10 * x) [ 1 ]))

(* The rank-slice fan-out: ranges are contiguous, non-empty, and
   cover [0, n) in order, one per job up to n. *)
let test_map_slices_cover () =
  List.iter
    (fun (jobs, n) ->
      let ranges = Parallel.Pool.map_slices ~jobs ~n (fun lo hi -> (lo, hi)) in
      let what = Printf.sprintf "jobs %d, n %d" jobs n in
      Alcotest.(check int) (what ^ ": range count") (max 1 (min jobs n)) (List.length ranges);
      let next =
        List.fold_left
          (fun expected (lo, hi) ->
            Alcotest.(check int) (what ^ ": contiguous") expected lo;
            Alcotest.(check bool) (what ^ ": non-empty") true (hi > lo || n = 0);
            hi)
          0 ranges
      in
      Alcotest.(check int) (what ^ ": covers [0, n)") n next)
    [ (1, 10); (1, 0); (2, 10); (3, 10); (4, 5); (4, 9); (8, 3); (5, 1); (4, 0); (3, 1024) ];
  Alcotest.(check (list (list int)))
    "results in range order"
    [ [ 0; 1; 2 ]; [ 3; 4; 5 ]; [ 6; 7; 8 ] ]
    (Parallel.Pool.map_slices ~jobs:3 ~n:9 (fun lo hi -> List.init (hi - lo) (( + ) lo)))

let test_fanout_streams_deterministic () =
  let draws rng = List.init 3 (fun _ -> Prng.Rng.int rng 1_000_000) in
  let a = Parallel.Fanout.streams (Prng.Rng.create 42) 5 in
  let b = Parallel.Fanout.streams (Prng.Rng.create 42) 5 in
  Array.iteri
    (fun i sa ->
      Alcotest.(check (list int))
        (Printf.sprintf "stream %d" i)
        (draws sa) (draws b.(i)))
    a

let test_fanout_map_jobs_invariant () =
  let run jobs =
    Parallel.Pool.with_pool ~jobs (fun pool ->
        Parallel.Fanout.map pool (Prng.Rng.create 7)
          [ 10; 20; 30; 40; 50 ]
          ~f:(fun x stream -> x + Prng.Rng.int stream 1000))
  in
  let seq = run 1 in
  Alcotest.(check (list int)) "jobs=2 = jobs=1" seq (run 2);
  Alcotest.(check (list int)) "jobs=4 = jobs=1" seq (run 4)

let test_metrics_merge_across_domains () =
  let parts =
    Parallel.Pool.with_pool ~jobs:4 (fun pool ->
        Parallel.Pool.map pool
          (fun k ->
            let m = Sim.Metrics.create () in
            for _ = 1 to k do
              Sim.Metrics.incr m "work"
            done;
            m)
          [ 1; 2; 3; 4 ])
  in
  let total = Sim.Metrics.create () in
  List.iter (Sim.Metrics.merge total) parts;
  Alcotest.(check int) "merged sum" 10 (Sim.Metrics.get total "work")

(* The tentpole guarantee: experiment tables are a pure function of
   the seed, independent of the jobs count. Rendered output includes
   every cell and note, so string equality is the strongest check. *)
let table_invariant name run () =
  let render jobs = Experiments.Table.render (run ~jobs (Prng.Rng.create 1) Experiments.Scale.Quick) in
  let seq = render 1 in
  Alcotest.(check string) (name ^ ": jobs=2") seq (render 2);
  Alcotest.(check string) (name ^ ": jobs=4") seq (render 4)

let test_registry_complete () =
  let ids = List.map (fun s -> s.Experiments.Registry.id) Experiments.Registry.all in
  let expected =
    List.init 27 (fun i -> Printf.sprintf "e%d" i) @ [ "f1" ]
  in
  Alcotest.(check (list string)) "canonical ids" expected ids;
  Alcotest.(check bool) "find e4" true (Experiments.Registry.find "e4" <> None);
  Alcotest.(check bool) "find nonsense" true (Experiments.Registry.find "e99" = None)

(* The pool only buys wall-clock time when the host actually has
   spare cores; on the 1-core CI container jobs=2 is pure
   scheduling overhead, so the speedup assertion must be gated on
   the hardware (correctness of the results is asserted above
   either way). *)
let test_pool_speedup_when_cores_allow () =
  let cores = Domain.recommended_domain_count () in
  if cores < 4 then
    Printf.printf "skipping speedup assertion: %d core(s) available\n%!" cores
  else begin
    let work _ =
      (* CPU-bound busy work, long enough to dominate pool overhead. *)
      let acc = ref 0 in
      for i = 1 to 3_000_000 do
        acc := (!acc + i) land 0xFFFF
      done;
      !acc
    in
    let items = List.init 8 Fun.id in
    let time jobs =
      Parallel.Pool.with_pool ~jobs (fun pool ->
          let t0 = Unix.gettimeofday () in
          ignore (Parallel.Pool.map pool work items);
          Unix.gettimeofday () -. t0)
    in
    let seq = time 1 in
    let par = time 4 in
    (* Conservative bound: any real speedup beats 1.2x; flaky-proof
       against noisy neighbours. *)
    Alcotest.(check bool)
      (Printf.sprintf "jobs=4 faster than jobs=1 (%.3fs vs %.3fs)" par seq)
      true
      (par < seq /. 1.2)
  end

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map keeps input order" `Quick test_pool_map_order;
          Alcotest.test_case "empty input" `Quick test_pool_empty;
          Alcotest.test_case "jobs > items" `Quick test_pool_more_jobs_than_items;
          Alcotest.test_case "exception propagation" `Quick test_pool_exception;
          Alcotest.test_case "reuse after exception" `Quick
            test_pool_reuse_after_exception_same_pool;
          Alcotest.test_case "map_slices covers [0, n) in order" `Quick
            test_map_slices_cover;
        ] );
      ( "fanout",
        [
          Alcotest.test_case "streams deterministic" `Quick
            test_fanout_streams_deterministic;
          Alcotest.test_case "map invariant under jobs" `Quick
            test_fanout_map_jobs_invariant;
          Alcotest.test_case "metrics merge across domains" `Quick
            test_metrics_merge_across_domains;
        ] );
      ( "experiments are jobs-invariant",
        [
          Alcotest.test_case "E1" `Quick
            (table_invariant "e1" (fun ~jobs rng scale ->
                 Experiments.Exp_static.run_e1 ~jobs rng scale));
          Alcotest.test_case "E3" `Quick
            (table_invariant "e3" (fun ~jobs rng scale ->
                 Experiments.Exp_costs.run_e3 ~jobs rng scale));
          Alcotest.test_case "E10" `Quick
            (table_invariant "e10" (fun ~jobs rng scale ->
                 Experiments.Exp_sweep.run_e10 ~jobs rng scale));
          Alcotest.test_case "E14" `Quick
            (table_invariant "e14" (fun ~jobs rng scale ->
                 Experiments.Exp_spam.run_e14 ~jobs rng scale));
          Alcotest.test_case "E16" `Quick
            (table_invariant "e16" (fun ~jobs rng scale ->
                 Experiments.Exp_overlay.run_e16 ~jobs rng scale));
          Alcotest.test_case "E23" `Quick
            (table_invariant "e23" (fun ~jobs rng scale ->
                 Experiments.Exp_serve.run_e23 ~jobs rng scale));
          Alcotest.test_case "E24" `Quick
            (table_invariant "e24" (fun ~jobs rng scale ->
                 Experiments.Exp_agreement.run_e24 ~jobs rng scale));
          Alcotest.test_case "E26" `Quick
            (table_invariant "e26" (fun ~jobs rng scale ->
                 Experiments.Exp_pow_epochs.run_e26 ~jobs rng scale));
        ] );
      ( "registry",
        [ Alcotest.test_case "canonical list" `Quick test_registry_complete ] );
      ( "speedup",
        [
          Alcotest.test_case "pool speedup (gated on cores)" `Slow
            test_pool_speedup_when_cores_allow;
        ] );
    ]
