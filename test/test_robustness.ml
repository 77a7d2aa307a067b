(* The ε-robustness estimators: search success, ID coverage,
   departure survival (the eps' margin), and the state-cost audit
   (Lemma 10 / Corollary 1). *)

let rng = Prng.Rng.create 2025
let params = Tinygroups.Params.default
let h1 = Hashing.Oracle.make ~system_key:"rob-test" ~label:"h1"

let make ?(n = 512) ?(beta = 0.05) ?(params = params) () =
  let pop =
    Adversary.Population.generate (Prng.Rng.split rng) ~n ~beta
      ~strategy:Adversary.Placement.Uniform
  in
  let overlay = Overlay.Chord.make (Adversary.Population.ring pop) in
  Tinygroups.Group_graph.build_direct ~params ~population:pop ~overlay ~member_oracle:h1 ()

let test_search_success_beta_zero () =
  let g = make ~beta:0.0 () in
  let r = Tinygroups.Robustness.search_success (Prng.Rng.split rng) g ~failure:`Majority ~samples:500 in
  Alcotest.(check int) "all succeed" 500 r.successes;
  Alcotest.(check (float 1e-9)) "rate 1" 1.0 r.success_rate;
  Alcotest.(check bool) "ci brackets 1" true (r.ci.hi >= 1.0 -. 1e-9)

let test_search_success_high_at_low_beta () =
  let g = make ~n:1024 ~beta:0.05 () in
  let r = Tinygroups.Robustness.search_success (Prng.Rng.split rng) g ~failure:`Majority ~samples:1000 in
  Alcotest.(check bool)
    (Printf.sprintf "success %.3f > 0.95" r.success_rate)
    true (r.success_rate > 0.95);
  Alcotest.(check bool) "messages counted" true (r.mean_messages > 0.);
  Alcotest.(check bool) "hops counted" true (r.mean_group_hops > 1.)

let test_search_success_degrades_with_beta () =
  let r_lo =
    Tinygroups.Robustness.search_success (Prng.Rng.split rng) (make ~beta:0.05 ())
      ~failure:`Majority ~samples:600
  in
  let r_hi =
    Tinygroups.Robustness.search_success (Prng.Rng.split rng) (make ~beta:0.30 ())
      ~failure:`Majority ~samples:600
  in
  Alcotest.(check bool)
    (Printf.sprintf "%.3f (beta=.05) >= %.3f (beta=.30)" r_lo.success_rate r_hi.success_rate)
    true
    (r_lo.success_rate >= r_hi.success_rate)

let test_id_coverage () =
  (* Theorem 3, second bullet: most good IDs reach most keys. Of 30
     random good IDs, each trying 40 random keys, more than 80% succeed
     on at least 90% of their keys. *)
  let g = make ~n:512 ~beta:0.05 () in
  let r = Prng.Rng.split rng in
  let sources =
    Adversary.Population.good_ids (Tinygroups.Group_graph.population g)
  in
  let picks = Prng.Rng.sample_without_replacement r 30 (Array.length sources) in
  let rates =
    Array.map
      (fun i ->
        let ok = ref 0 in
        for _ = 1 to 40 do
          let key = Idspace.Point.random r in
          if (Tinygroups.Secure_route.verdict g ~failure:`Majority ~src:sources.(i) ~key).ok
          then incr ok
        done;
        float_of_int !ok /. 40.)
      picks
  in
  let covered = Array.fold_left (fun acc x -> if x >= 0.9 then acc + 1 else acc) 0 rates in
  let fraction = float_of_int covered /. 30. in
  Alcotest.(check bool) (Printf.sprintf "covered fraction %.2f high" fraction) true (fraction > 0.8)

let test_departures_within_margin () =
  (* Departing a small fraction of good members leaves virtually all
     good groups with their majority (the eps'/2 model of §III). *)
  let g = make ~n:1024 ~beta:0.05 () in
  let r = Tinygroups.Robustness.departures_survival (Prng.Rng.split rng) g ~fraction:0.1 in
  Alcotest.(check bool)
    (Printf.sprintf "survival %.3f ~ 1" r.survival_rate)
    true (r.survival_rate > 0.98)

let test_departures_cliff () =
  (* Pushing departures far past the margin collapses majorities. The
     params' beta must match the population so that Good groups are
     allowed to contain some bad members — the groups at risk. *)
  let p20 = { params with Tinygroups.Params.beta = 0.20 } in
  let g = make ~n:512 ~beta:0.20 ~params:p20 () in
  let ok = Tinygroups.Robustness.departures_survival (Prng.Rng.split rng) g ~fraction:0.1 in
  let bad = Tinygroups.Robustness.departures_survival (Prng.Rng.split rng) g ~fraction:0.85 in
  Alcotest.(check bool)
    (Printf.sprintf "cliff: %.2f -> %.2f" ok.survival_rate bad.survival_rate)
    true
    (bad.survival_rate < ok.survival_rate -. 0.2)

let test_departures_zero_and_total () =
  let g = make ~n:256 ~beta:0.05 () in
  let none = Tinygroups.Robustness.departures_survival (Prng.Rng.split rng) g ~fraction:0.0 in
  Alcotest.(check (float 1e-9)) "no departures, full survival" 1.0 none.survival_rate;
  let all = Tinygroups.Robustness.departures_survival (Prng.Rng.split rng) g ~fraction:1.0 in
  (* All good members gone: any group containing a bad member flips;
     all-good groups become empty (not surviving). *)
  Alcotest.(check (float 1e-9)) "total departure kills everything" 0.0 all.survival_rate

let test_state_costs_shape () =
  let g = make ~n:1024 ~beta:0.05 () in
  let s = Tinygroups.Robustness.state_costs g in
  (* Each ID is drawn into ~ d2 lnln n groups in expectation. *)
  let expected = 5. *. Idspace.Estimate.exact_ln_ln 1024 in
  Alcotest.(check bool)
    (Printf.sprintf "memberships %.1f ~ %.1f" s.per_id_memberships.mean expected)
    true
    (Float.abs (s.per_id_memberships.mean -. expected) < 4.);
  Alcotest.(check bool) "links positive" true (s.per_id_links.mean > 0.);
  Alcotest.(check bool) "links >= memberships" true
    (s.per_id_links.mean >= s.per_id_memberships.mean)

let test_state_costs_scale_with_group_size () =
  (* The whole point of the paper: state scales with |G|, so log-sized
     groups cost much more than loglog-sized ones. *)
  let tiny = Tinygroups.Robustness.state_costs (make ~n:1024 ()) in
  let logp = Tinygroups.Params.with_sizing params (Tinygroups.Params.Log 2.0) in
  let logn = Tinygroups.Robustness.state_costs (make ~n:1024 ~params:logp ()) in
  Alcotest.(check bool)
    (Printf.sprintf "log-groups links %.0f > tiny links %.0f" logn.per_id_links.mean
       tiny.per_id_links.mean)
    true
    (logn.per_id_links.mean > tiny.per_id_links.mean *. 1.5)

let test_invalid_args () =
  let g = make ~n:64 () in
  Alcotest.check_raises "bad fraction" (Invalid_argument "Robustness.departures_survival")
    (fun () ->
      ignore (Tinygroups.Robustness.departures_survival (Prng.Rng.split rng) g ~fraction:1.5));
  Alcotest.check_raises "bad samples" (Invalid_argument "Robustness.search_success")
    (fun () ->
      ignore
        (Tinygroups.Robustness.search_success (Prng.Rng.split rng) g ~failure:`Majority
           ~samples:0))

let () =
  Alcotest.run "robustness"
    [
      ( "search",
        [
          Alcotest.test_case "beta 0 always succeeds" `Quick test_search_success_beta_zero;
          Alcotest.test_case "high success at low beta" `Slow test_search_success_high_at_low_beta;
          Alcotest.test_case "degrades with beta" `Slow test_search_success_degrades_with_beta;
          Alcotest.test_case "id coverage" `Slow test_id_coverage;
        ] );
      ( "departures",
        [
          Alcotest.test_case "margin survival" `Quick test_departures_within_margin;
          Alcotest.test_case "cliff past the margin" `Quick test_departures_cliff;
          Alcotest.test_case "edge fractions" `Quick test_departures_zero_and_total;
        ] );
      ( "state",
        [
          Alcotest.test_case "Lemma 10 shape" `Quick test_state_costs_shape;
          Alcotest.test_case "scales with group size" `Quick test_state_costs_scale_with_group_size;
          Alcotest.test_case "argument validation" `Quick test_invalid_args;
        ] );
    ]
