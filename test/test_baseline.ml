(* Baselines: the classical log-size groups, the cuckoo-rule
   join-leave simulator ([47]'s setting), and flat routing. *)

let rng = Prng.Rng.create 7007
let params = Tinygroups.Params.default
let h1 = Hashing.Oracle.make ~system_key:"base-test" ~label:"h1"

let population ?(n = 512) ?(beta = 0.05) () =
  Adversary.Population.generate (Prng.Rng.split rng) ~n ~beta
    ~strategy:Adversary.Placement.Uniform

let test_logn_group_size () =
  (* 2 ln 8192 = 18.03 -> 19 draws. *)
  Alcotest.(check int) "log-sized draws" 19 (Baseline.Logn_groups.group_size ~n:8192 ());
  Alcotest.(check bool) "bigger than tiny groups" true
    (Baseline.Logn_groups.group_size ~n:8192 ()
    > Tinygroups.Params.member_draws params ~n:8192)

let test_logn_build () =
  let pop = population () in
  let overlay = Overlay.Chord.make (Adversary.Population.ring pop) in
  let g = Baseline.Logn_groups.build ~params ~population:pop ~overlay ~member_oracle:h1 () in
  Alcotest.(check int) "one group per ID" 512 (Tinygroups.Group_graph.n_groups g);
  let mean = Tinygroups.Group_graph.mean_group_size g in
  Alcotest.(check bool)
    (Printf.sprintf "mean size %.1f ~ 2 ln n" mean)
    true
    (Float.abs (mean -. (2. *. log 512.)) < 4.)

let test_logn_fewer_hijacks_per_group () =
  (* Bigger groups, exponentially fewer majority losses: at a beta
     where tiny groups show hijacks, log-groups shouldn't. *)
  let pop = population ~n:1024 ~beta:0.25 () in
  let overlay = Overlay.Chord.make (Adversary.Population.ring pop) in
  let tiny =
    Tinygroups.Group_graph.build_direct ~params ~population:pop ~overlay ~member_oracle:h1 ()
  in
  let logn = Baseline.Logn_groups.build ~params ~population:pop ~overlay ~member_oracle:h1 () in
  let hij g = (Tinygroups.Group_graph.census g).Tinygroups.Group_graph.hijacked_ in
  Alcotest.(check bool)
    (Printf.sprintf "log %d <= tiny %d" (hij logn) (hij tiny))
    true
    (hij logn <= hij tiny)

(* Cuckoo rule. *)

let test_cuckoo_no_adversary () =
  let cfg = Baseline.Cuckoo.default_config ~n:512 ~beta:0.0 ~group_size:16 in
  let o = Baseline.Cuckoo.simulate (Prng.Rng.split rng) cfg ~max_rounds:100 in
  Alcotest.(check bool) "never compromised" false o.compromised;
  Alcotest.(check (float 1e-9)) "no bad anywhere" 0. o.max_bad_fraction;
  Alcotest.(check int) "stops immediately without bad nodes" 0 o.rounds_survived

let test_cuckoo_small_groups_fall () =
  (* [47]'s finding in miniature: small groups cannot survive the
     join-leave attack for long. *)
  let cfg = Baseline.Cuckoo.default_config ~n:1024 ~beta:0.05 ~group_size:4 in
  let o = Baseline.Cuckoo.simulate (Prng.Rng.split rng) cfg ~max_rounds:20_000 in
  Alcotest.(check bool) "small groups compromised" true o.compromised

let test_cuckoo_large_groups_survive_longer () =
  let run group_size =
    let cfg = Baseline.Cuckoo.default_config ~n:1024 ~beta:0.02 ~group_size in
    (Baseline.Cuckoo.simulate (Prng.Rng.split rng) cfg ~max_rounds:3_000).rounds_survived
  in
  let small = run 6 and large = run 48 in
  Alcotest.(check bool)
    (Printf.sprintf "large groups last longer (%d vs %d rounds)" large small)
    true (large >= small)

let test_cuckoo_eviction_preserves_population () =
  (* Rounds never lose or duplicate nodes: the max bad fraction is a
     valid probability and the simulation runs to its horizon. *)
  let cfg = Baseline.Cuckoo.default_config ~n:256 ~beta:0.02 ~group_size:32 in
  let o = Baseline.Cuckoo.simulate (Prng.Rng.split rng) cfg ~max_rounds:500 in
  Alcotest.(check bool) "fraction is a probability" true
    (o.max_bad_fraction >= 0. && o.max_bad_fraction <= 1.);
  Alcotest.(check bool) "ran some rounds" true (o.rounds_survived > 0)

let test_benign_churn_runs () =
  let cfg =
    {
      (Baseline.Cuckoo.default_config ~n:512 ~beta:0.02 ~group_size:32) with
      Baseline.Cuckoo.benign_churn = 0.5;
    }
  in
  let o = Baseline.Cuckoo.simulate (Prng.Rng.split rng) cfg ~max_rounds:1_000 in
  Alcotest.(check bool) "terminates with background churn" true
    (o.Baseline.Cuckoo.rounds_survived <= 1_000);
  Alcotest.(check bool) "fraction valid" true
    (o.Baseline.Cuckoo.max_bad_fraction >= 0. && o.Baseline.Cuckoo.max_bad_fraction <= 1.)

let test_commensal_variant_runs () =
  let cfg =
    {
      (Baseline.Cuckoo.default_config ~n:512 ~beta:0.03 ~group_size:24) with
      Baseline.Cuckoo.rule = Baseline.Cuckoo.Commensal 2;
    }
  in
  let o = Baseline.Cuckoo.simulate (Prng.Rng.split rng) cfg ~max_rounds:1_000 in
  Alcotest.(check bool) "terminates" true (o.rounds_survived <= 1_000)

let test_min_surviving_group_size () =
  (* The smallest of the candidate sizes whose regions survive 1000
     join-leave events (one trial each). *)
  let survives g =
    let cfg = Baseline.Cuckoo.default_config ~n:1024 ~beta:0.02 ~group_size:g in
    not (Baseline.Cuckoo.simulate (Prng.Rng.split rng) cfg ~max_rounds:1_000).compromised
  in
  match List.find_opt survives [ 4; 16; 64 ] with
  | Some g -> Alcotest.(check bool) (Printf.sprintf "found size %d" g) true (g >= 4)
  | None -> Alcotest.fail "64-node groups should survive 1000 rounds at beta=0.02"

(* Flat routing. *)

let test_flat_collapses () =
  let pop = population ~n:1024 ~beta:0.10 () in
  let overlay = Overlay.Chord.make (Adversary.Population.ring pop) in
  let r = Baseline.Flat.search_success (Prng.Rng.split rng) pop overlay ~samples:500 in
  (* (1 - 0.1)^~9 hops ~ 0.39: far below what groups deliver. *)
  Alcotest.(check bool)
    (Printf.sprintf "success %.2f collapses" r.success_rate)
    true (r.success_rate < 0.7);
  Alcotest.(check bool)
    (Printf.sprintf "matches the (1-beta)^D prediction %.2f" r.predicted)
    true
    (Float.abs (r.success_rate -. r.predicted) < 0.15)

let test_flat_beta_zero_fine () =
  let pop = population ~n:256 ~beta:0.0 () in
  let overlay = Overlay.Chord.make (Adversary.Population.ring pop) in
  let r = Baseline.Flat.search_success (Prng.Rng.split rng) pop overlay ~samples:200 in
  Alcotest.(check (float 1e-9)) "perfect without adversary" 1.0 r.success_rate

let prop_cuckoo_deterministic =
  QCheck.Test.make ~name:"cuckoo runs replay with the seed" ~count:10 QCheck.small_int
    (fun seed ->
      let run () =
        let cfg = Baseline.Cuckoo.default_config ~n:128 ~beta:0.05 ~group_size:8 in
        Baseline.Cuckoo.simulate (Prng.Rng.create seed) cfg ~max_rounds:200
      in
      let a = run () and b = run () in
      a.Baseline.Cuckoo.rounds_survived = b.Baseline.Cuckoo.rounds_survived
      && a.Baseline.Cuckoo.compromised = b.Baseline.Cuckoo.compromised)

let () =
  Alcotest.run "baseline"
    [
      ( "logn-groups",
        [
          Alcotest.test_case "group size" `Quick test_logn_group_size;
          Alcotest.test_case "build" `Quick test_logn_build;
          Alcotest.test_case "fewer hijacks" `Slow test_logn_fewer_hijacks_per_group;
        ] );
      ( "cuckoo",
        [
          Alcotest.test_case "no adversary" `Quick test_cuckoo_no_adversary;
          Alcotest.test_case "small groups fall" `Slow test_cuckoo_small_groups_fall;
          Alcotest.test_case "large groups survive longer" `Slow
            test_cuckoo_large_groups_survive_longer;
          Alcotest.test_case "population bookkeeping" `Quick test_cuckoo_eviction_preserves_population;
          Alcotest.test_case "commensal variant" `Quick test_commensal_variant_runs;
          Alcotest.test_case "benign background churn" `Quick test_benign_churn_runs;
          Alcotest.test_case "min surviving size" `Slow test_min_surviving_group_size;
        ] );
      ( "flat",
        [
          Alcotest.test_case "collapses with beta" `Quick test_flat_collapses;
          Alcotest.test_case "fine without adversary" `Quick test_flat_beta_zero_fine;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_cuckoo_deterministic ]);
    ]
