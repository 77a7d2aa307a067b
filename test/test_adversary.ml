(* Adversary model: ID placement strategies and the labelled
   population. *)

open Idspace

let rng = Prng.Rng.create 31

let test_uniform_budget () =
  let ids = Adversary.Placement.draw rng Adversary.Placement.Uniform ~budget:100 in
  Alcotest.(check int) "exact budget" 100 (List.length ids);
  Alcotest.(check int) "distinct" 100 (List.length (List.sort_uniq Point.compare ids))

let test_cluster_confined () =
  let arc = Interval.make ~from:(Point.of_float 0.4) ~until:(Point.of_float 0.5) in
  let ids = Adversary.Placement.draw rng (Adversary.Placement.Cluster arc) ~budget:200 in
  Alcotest.(check int) "budget" 200 (List.length ids);
  List.iter
    (fun p -> Alcotest.(check bool) "inside target arc" true (Interval.contains arc p))
    ids

let test_omit_reduces () =
  let ids = Adversary.Placement.draw rng (Adversary.Placement.Omit 0.5) ~budget:1000 in
  let k = List.length ids in
  Alcotest.(check bool) (Printf.sprintf "about half omitted (%d)" k) true (k > 350 && k < 650)

let test_omit_zero_keeps_all () =
  let ids = Adversary.Placement.draw rng (Adversary.Placement.Omit 0.) ~budget:50 in
  Alcotest.(check int) "nothing omitted" 50 (List.length ids)

let test_uniform_is_uniform () =
  (* What PoW enforces (Lemma 11): adversarial IDs spread uniformly. *)
  let ids = Adversary.Placement.draw rng Adversary.Placement.Uniform ~budget:20_000 in
  let h = Stats.Histogram.create ~bins:20 () in
  List.iter (fun p -> Stats.Histogram.add h (Point.to_float p)) ids;
  Alcotest.(check bool) "chi-square consistent with uniform" true
    (Stats.Histogram.chi_square_uniform h < Stats.Histogram.chi_square_critical_99 ~dof:19)

let test_population_generate () =
  let pop =
    Adversary.Population.generate rng ~n:1000 ~beta:0.1
      ~strategy:Adversary.Placement.Uniform
  in
  Alcotest.(check int) "n IDs" 1000 (Adversary.Population.n pop);
  Alcotest.(check int) "beta n bad" 100 (Adversary.Population.bad_count pop);
  Alcotest.(check (float 0.001)) "beta actual" 0.1 (Adversary.Population.beta_actual pop);
  Alcotest.(check int) "good + bad = n" 1000
    (Array.length (Adversary.Population.good_ids pop)
    + Idspace.Ring.cardinal (Adversary.Population.bad_ring pop))

let test_population_labels () =
  let pop =
    Adversary.Population.generate rng ~n:500 ~beta:0.2
      ~strategy:Adversary.Placement.Uniform
  in
  Array.iter
    (fun p -> Alcotest.(check bool) "bad is bad" true (Adversary.Population.is_bad pop p))
    (Idspace.Ring.to_sorted_array (Adversary.Population.bad_ring pop));
  Array.iter
    (fun p -> Alcotest.(check bool) "good is good" false (Adversary.Population.is_bad pop p))
    (Adversary.Population.good_ids pop)

let test_population_unknown_id () =
  let pop = Adversary.Population.make ~good:[ Point.of_float 0.5 ] ~bad:[] in
  Alcotest.(check bool) "unknown ID is not bad" false
    (Adversary.Population.is_bad pop (Point.of_float 0.25))

let test_population_rejects_overlap () =
  let p = Point.of_float 0.5 in
  Alcotest.check_raises "overlap" (Invalid_argument "Population.make: good/bad overlap")
    (fun () -> ignore (Adversary.Population.make ~good:[ p ] ~bad:[ p ]))

let test_population_churn_ops () =
  let pop = Adversary.Population.make ~good:[ Point.of_float 0.1 ] ~bad:[ Point.of_float 0.9 ] in
  let pop2 =
    Adversary.Population.add_batch pop ~good:[ Point.of_float 0.3 ]
      ~bad:[ Point.of_float 0.5 ]
  in
  Alcotest.(check int) "added" 4 (Adversary.Population.n pop2);
  Alcotest.(check int) "two bad" 2 (Adversary.Population.bad_count pop2);
  Alcotest.(check bool) "added bad ID is bad" true
    (Adversary.Population.is_bad pop2 (Point.of_float 0.5));
  Alcotest.(check bool) "added good ID is good" false
    (Adversary.Population.is_bad pop2 (Point.of_float 0.3));
  Alcotest.check_raises "present ID rejected"
    (Invalid_argument "Population.add_batch: ID already present") (fun () ->
      ignore (Adversary.Population.add_batch pop2 ~good:[ Point.of_float 0.1 ] ~bad:[]));
  Alcotest.check_raises "duplicate ID rejected"
    (Invalid_argument "Population.add_batch: duplicate IDs in batch") (fun () ->
      ignore
        (Adversary.Population.add_batch pop2 ~good:[ Point.of_float 0.7 ]
           ~bad:[ Point.of_float 0.7 ]));
  let pop3 = Adversary.Population.remove_batch pop2 [ Point.of_float 0.9 ] in
  Alcotest.(check int) "removed" 3 (Adversary.Population.n pop3);
  Alcotest.(check int) "one bad left" 1 (Adversary.Population.bad_count pop3);
  (* Removing an absent ID is a no-op. *)
  let pop4 = Adversary.Population.remove_batch pop3 [ Point.of_float 0.77 ] in
  Alcotest.(check int) "no-op remove" 3 (Adversary.Population.n pop4)

let test_random_good () =
  let pop =
    Adversary.Population.generate rng ~n:100 ~beta:0.3
      ~strategy:Adversary.Placement.Uniform
  in
  for _ = 1 to 50 do
    let p = Adversary.Population.random_good rng pop in
    Alcotest.(check bool) "never bad" false (Adversary.Population.is_bad pop p)
  done

let prop_generate_respects_beta =
  QCheck.Test.make ~name:"generated populations respect the beta budget" ~count:50
    QCheck.(pair small_int (int_range 10 300))
    (fun (seed, n) ->
      let r = Prng.Rng.create seed in
      let pop =
        Adversary.Population.generate r ~n ~beta:0.15 ~strategy:Adversary.Placement.Uniform
      in
      Adversary.Population.n pop = n
      && Adversary.Population.bad_count pop = int_of_float (ceil (0.15 *. float_of_int n)))

let prop_omit_never_exceeds =
  QCheck.Test.make ~name:"omit never exceeds the budget" ~count:100
    QCheck.(pair small_int (float_range 0. 1.))
    (fun (seed, p) ->
      let r = Prng.Rng.create seed in
      List.length (Adversary.Placement.draw r (Adversary.Placement.Omit p) ~budget:50) <= 50)

let () =
  Alcotest.run "adversary"
    [
      ( "placement",
        [
          Alcotest.test_case "uniform budget" `Quick test_uniform_budget;
          Alcotest.test_case "cluster confined" `Quick test_cluster_confined;
          Alcotest.test_case "omit reduces" `Quick test_omit_reduces;
          Alcotest.test_case "omit 0 keeps all" `Quick test_omit_zero_keeps_all;
          Alcotest.test_case "uniform is uniform" `Slow test_uniform_is_uniform;
        ] );
      ( "population",
        [
          Alcotest.test_case "generate" `Quick test_population_generate;
          Alcotest.test_case "labels" `Quick test_population_labels;
          Alcotest.test_case "unknown IDs" `Quick test_population_unknown_id;
          Alcotest.test_case "rejects overlap" `Quick test_population_rejects_overlap;
          Alcotest.test_case "churn operations" `Quick test_population_churn_ops;
          Alcotest.test_case "random good" `Quick test_random_good;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_generate_respects_beta; prop_omit_never_exceeds ] );
    ]
