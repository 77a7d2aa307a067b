(* B0-B11: Bechamel micro-benchmarks of the core operations, one per
   cost the paper reasons about. Results are OLS estimates of
   nanoseconds and minor-heap words allocated per run. *)

open Bechamel
open Toolkit

let rng = Prng.Rng.create 90210

let secure_route_test =
  (* B1: one secure search over a tiny-group graph (cost (ii)). *)
  let _, g = Experiments.Common.build_tiny rng ~n:2048 ~beta:0.05 () in
  let leaders = Tinygroups.Group_graph.leaders g in
  let r = Prng.Rng.split rng in
  Test.make ~name:"B1 secure-route n=2048"
    (Staged.stage (fun () ->
         let src = leaders.(Prng.Rng.int r (Array.length leaders)) in
         let key = Idspace.Point.random r in
         ignore (Tinygroups.Secure_route.search g ~failure:`Majority ~src ~key)))

let group_build_test =
  (* B2: forming one group (member draws + successor lookups). *)
  let pop =
    Adversary.Population.generate (Prng.Rng.split rng) ~n:2048 ~beta:0.05
      ~strategy:Adversary.Placement.Uniform
  in
  let params = Tinygroups.Params.default in
  let r = Prng.Rng.split rng in
  (* The shared builder is the exact code path [build_direct] runs —
     the bench previously re-implemented the member draws inline and
     had drifted from it (fixed draw count vs the per-ID ln ln n
     estimate). *)
  let builder =
    Tinygroups.Group_graph.Builder.create ~params ~population:pop
      ~member_oracle:Experiments.Common.h1
  in
  Test.make ~name:"B2 group-formation n=2048"
    (Staged.stage (fun () ->
         let w = Idspace.Point.random r in
         ignore (Tinygroups.Group_graph.Builder.form_group builder w)))

let membership_verify_test =
  (* B3: one dual-search membership solicitation through old graphs. *)
  let _, g1 = Experiments.Common.build_tiny rng ~n:1024 ~beta:0.05 () in
  let _, g2 = Experiments.Common.build_tiny rng ~n:1024 ~beta:0.05 () in
  let pair = Tinygroups.Membership.make_old_pair ~failure:`Majority g1 (Some g2) in
  let metrics = Sim.Metrics.create () in
  let r = Prng.Rng.split rng in
  Test.make ~name:"B3 membership-solicit n=1024"
    (Staged.stage (fun () ->
         ignore
           (Tinygroups.Membership.solicit_member r metrics pair
              ~point:(Idspace.Point.random r))))

let pow_attempt_test =
  (* B4: one proof-of-work puzzle attempt (a hash evaluation). *)
  let scheme =
    Pow.Identity.make_scheme ~system_key:"bench" ~epoch_steps:4096
  in
  let r = Prng.Rng.split rng in
  Test.make ~name:"B4 pow-attempt"
    (Staged.stage (fun () ->
         ignore
           (Pow.Identity.attempt scheme ~sigma:(Prng.Rng.bits64 r) ~rand_string:42L)))

let phase_king_test =
  (* B5: one Byzantine-agreement instance at construction group size. *)
  let r = Prng.Rng.split rng in
  let g = 11 in
  let byzantine = Array.init g (fun i -> i < 2) in
  Test.make ~name:"B5 phase-king g=11 t=2"
    (Staged.stage (fun () ->
         let inputs = Array.init g (fun _ -> Prng.Rng.bool r) in
         ignore
           (Agreement.Phase_king.run r ~inputs ~byzantine
              ~behaviour:Agreement.Phase_king.Equivocate)))

let benor_test =
  (* B7: one Ben-Or agreement instance, for comparison with B5. *)
  let r = Prng.Rng.split rng in
  let g = 11 in
  let byzantine = Array.init g (fun i -> i < 2) in
  Test.make ~name:"B7 ben-or g=11 t=2"
    (Staged.stage (fun () ->
         let inputs = Array.init g (fun _ -> Prng.Rng.bool r) in
         ignore
           (Agreement.Benor.run r ~inputs ~byzantine
              ~behaviour:Agreement.Phase_king.Equivocate ~max_rounds:500)))

let cuckoo_step_test =
  (* B6: one cuckoo-rule rejoin (the baseline's unit of churn). *)
  let r = Prng.Rng.split rng in
  Test.make ~name:"B6 cuckoo-1000-rejoins n=1024"
    (Staged.stage (fun () ->
         let cfg = Baseline.Cuckoo.default_config ~n:1024 ~beta:0.05 ~group_size:16 in
         ignore (Baseline.Cuckoo.simulate r cfg ~max_rounds:1000)))

let kvstore_get_test =
  (* B8: one replicated read (search + votes + majority filter). *)
  let _, g = Experiments.Common.build_tiny rng ~n:1024 ~beta:0.05 () in
  (* Cache off: B8 measures the full secure-route read path. *)
  let store = Kvstore.Store.create ~route_cache:false ~system_key:"bench" g in
  let client =
    Kvstore.Store.connect store
      ~id:(Adversary.Population.good_ids (Tinygroups.Group_graph.population g)).(0)
  in
  let r = Prng.Rng.split rng in
  for i = 0 to 99 do
    ignore
      (Kvstore.Store.put client ~name:(Printf.sprintf "k%d" i) ~value:"v")
  done;
  Test.make ~name:"B8 kvstore-get n=1024"
    (Staged.stage (fun () ->
         ignore
           (Kvstore.Store.get client ~name:(Printf.sprintf "k%d" (Prng.Rng.int r 100)))))

let commit_reveal_test =
  (* B9: one group random-number generation (the [8] task). *)
  let r = Prng.Rng.split rng in
  Test.make ~name:"B9 commit-reveal g=11 t=2"
    (Staged.stage (fun () ->
         ignore
           (Agreement.Commit_reveal.run r ~good:9 ~bad:2
              ~plan:{ Agreement.Commit_reveal.withhold_if_output_even = true })))

let sha256_test =
  Test.make ~name:"B0 sha256-1KiB"
    (let block = String.make 1024 'x' in
     Staged.stage (fun () -> ignore (Hashing.Sha256.digest_string block)))

let ring_successor_test =
  (* B10: one successor lookup, the step under every member draw and
     routing hop. *)
  let ring = Idspace.Ring.populate (Prng.Rng.split rng) 4096 in
  let keys = Array.init 4096 (fun _ -> Idspace.Point.random rng) in
  let i = ref 0 in
  Test.make ~name:"B10 ring-successor n=4096"
    (Staged.stage (fun () ->
         incr i;
         ignore (Idspace.Ring.successor_exn ring keys.(!i land 4095))))

let ring_random_member_test =
  (* B11: one uniform member draw; O(1) on a compact ring like this
     one, O(log sqrt n) while an [add] delta is pending. *)
  let ring = Idspace.Ring.populate (Prng.Rng.split rng) 4096 in
  let r = Prng.Rng.split rng in
  Test.make ~name:"B11 ring-random-member n=4096"
    (Staged.stage (fun () -> ignore (Idspace.Ring.random_member r ring)))

(* Bechamel's [Instance.minor_allocated] reads [Gc.quick_stat], whose
   minor-word count moves only at a minor collection on OCaml 5, so
   an operation that allocates less than a minor heap per sample
   reads as zero. [Gc.minor_words] also counts the live minor heap. *)
module Minor_words = struct
  type witness = unit

  let load () = ()
  let unload () = ()
  let make () = ()
  let get () = Gc.minor_words ()
  let label () = "minor-words"
  let unit () = "w"
end

let minor_words =
  Measure.instance (module Minor_words) (Measure.register (module Minor_words))

let run () =
  let tests =
    Test.make_grouped ~name:"tinygroups"
      [
        sha256_test;
        secure_route_test;
        group_build_test;
        membership_verify_test;
        pow_attempt_test;
        phase_king_test;
        benor_test;
        cuckoo_step_test;
        kvstore_get_test;
        commit_reveal_test;
        ring_successor_test;
        ring_random_member_test;
      ]
  in
  let cfg = Benchmark.cfg ~limit:1500 ~quota:(Time.second 0.5) () in
  let raw =
    Benchmark.all cfg [ Instance.monotonic_clock; minor_words ] tests
  in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let clock = Analyze.all ols Instance.monotonic_clock raw in
  let alloc = Analyze.all ols minor_words raw in
  let estimate o =
    match Analyze.OLS.estimates o with Some (e :: _) -> e | _ -> Float.nan
  in
  let names = List.sort compare (Hashtbl.fold (fun name _ acc -> name :: acc) clock []) in
  print_string "\n== Timing benches (Bechamel OLS: monotonic clock, minor-heap words)\n";
  List.iter
    (fun name ->
      let o = Hashtbl.find clock name in
      let r2 = Option.value ~default:Float.nan (Analyze.OLS.r_square o) in
      Printf.printf "%-40s %12.1f ns/run %10.1f words/run   (r^2 %.3f)\n" name
        (estimate o)
        (estimate (Hashtbl.find alloc name))
        r2)
    names
