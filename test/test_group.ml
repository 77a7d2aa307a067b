(* Groups: formation, deduplication, health classification, and the
   sizing/tolerance parameter arithmetic. *)

open Idspace

let pt = Point.of_float

let params = Tinygroups.Params.default

let pop_of ~good ~bad =
  Adversary.Population.make ~good:(List.map pt good) ~bad:(List.map pt bad)

let test_form_dedups_and_sorts () =
  let pop = pop_of ~good:[ 0.1; 0.2; 0.3; 0.4 ] ~bad:[] in
  let g =
    Tinygroups.Group.form params pop ~leader:(pt 0.1)
      ~members:[ pt 0.3; pt 0.2; pt 0.3; pt 0.2; pt 0.4 ]
  in
  Alcotest.(check int) "deduplicated" 3 (Tinygroups.Group.size g);
  let ms = Array.map Point.to_float g.Tinygroups.Group.members in
  Alcotest.(check bool) "sorted" true (ms = [| 0.2; 0.3; 0.4 |])

let test_bad_counting () =
  let pop = pop_of ~good:[ 0.1; 0.2; 0.3 ] ~bad:[ 0.8; 0.9 ] in
  let g =
    Tinygroups.Group.form params pop ~leader:(pt 0.1)
      ~members:[ pt 0.2; pt 0.3; pt 0.8; pt 0.9 ]
  in
  Alcotest.(check int) "two bad" 2 g.Tinygroups.Group.bad_members;
  Alcotest.(check int) "two good" 2 (Tinygroups.Group.good_members g);
  Alcotest.(check bool) "labels stored per member" true
    (Tinygroups.Group.member_is_bad g 2 && Tinygroups.Group.member_is_bad g 3);
  Alcotest.(check bool) "good labels too" false (Tinygroups.Group.member_is_bad g 0)

let test_health_hijacked () =
  let pop = pop_of ~good:[ 0.1; 0.2 ] ~bad:[ 0.7; 0.8; 0.9 ] in
  let g =
    Tinygroups.Group.form params pop ~leader:(pt 0.1)
      ~members:[ pt 0.1; pt 0.2; pt 0.7; pt 0.8; pt 0.9 ]
  in
  Alcotest.(check bool) "hijacked" true
    (g.Tinygroups.Group.health = Tinygroups.Group.Hijacked);
  Alcotest.(check bool) "no good majority" false (Tinygroups.Group.has_good_majority g)

let test_health_exact_half () =
  (* Exactly half bad: not a strict good majority, so hijacked. *)
  let pop = pop_of ~good:[ 0.1; 0.2 ] ~bad:[ 0.8; 0.9 ] in
  let g =
    Tinygroups.Group.form params pop ~leader:(pt 0.1)
      ~members:[ pt 0.1; pt 0.2; pt 0.8; pt 0.9 ]
  in
  Alcotest.(check bool) "half is not a majority" false (Tinygroups.Group.has_good_majority g);
  Alcotest.(check bool) "hijacked" true (g.Tinygroups.Group.health = Tinygroups.Group.Hijacked)

let test_health_weak () =
  (* One bad member in a small group: good majority retained, but the
     strict (1+delta) beta tolerance (sub-one member at this size) is
     exceeded -> weak. *)
  let pop = pop_of ~good:[ 0.1; 0.2; 0.3; 0.4; 0.5; 0.55; 0.6; 0.65 ] ~bad:[ 0.9 ] in
  let g =
    Tinygroups.Group.form params pop ~leader:(pt 0.1)
      ~members:[ pt 0.1; pt 0.2; pt 0.3; pt 0.4; pt 0.5; pt 0.55; pt 0.6; pt 0.65; pt 0.9 ]
  in
  Alcotest.(check bool) "majority holds" true (Tinygroups.Group.has_good_majority g);
  Alcotest.(check bool) "but not strictly good" true
    (g.Tinygroups.Group.health = Tinygroups.Group.Weak)

let test_health_good () =
  let good = List.init 12 (fun i -> 0.05 +. (0.07 *. float_of_int i)) in
  let pop = pop_of ~good ~bad:[] in
  let members = List.map pt good in
  let g = Tinygroups.Group.form params pop ~leader:(pt 0.05) ~members in
  Alcotest.(check bool) "good" true (g.Tinygroups.Group.health = Tinygroups.Group.Good)

let test_too_small_not_good () =
  (* All-good but below d1 ln ln n after dedup: not good (min size
     rule). At n=12, min size = 3. *)
  let pop = pop_of ~good:[ 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.85; 0.9; 0.95; 0.99 ] ~bad:[] in
  let g = Tinygroups.Group.form params pop ~leader:(pt 0.1) ~members:[ pt 0.1; pt 0.2 ] in
  Alcotest.(check bool) "below min size" true
    (g.Tinygroups.Group.health = Tinygroups.Group.Weak)

let test_contains () =
  let pop = pop_of ~good:[ 0.1; 0.2; 0.3 ] ~bad:[] in
  let g =
    Tinygroups.Group.form params pop ~leader:(pt 0.1) ~members:[ pt 0.1; pt 0.2; pt 0.3 ]
  in
  Alcotest.(check bool) "member" true (Tinygroups.Group.contains g (pt 0.2));
  Alcotest.(check bool) "non-member" false (Tinygroups.Group.contains g (pt 0.25))

let test_empty_rejected () =
  let pop = pop_of ~good:[ 0.1 ] ~bad:[] in
  Alcotest.check_raises "empty members" (Invalid_argument "Group.form: empty member set")
    (fun () -> ignore (Tinygroups.Group.form params pop ~leader:(pt 0.1) ~members:[]))

(* Parameter arithmetic. *)

let test_member_draws_loglog () =
  (* 5 * lnln(65536) ~ 5 * 2.41 = 12.03 -> 13. *)
  Alcotest.(check int) "draws at 2^16" 13
    (Tinygroups.Params.member_draws params ~n:65536);
  (* Grows very slowly. *)
  let d1 = Tinygroups.Params.member_draws params ~n:1024 in
  let d2 = Tinygroups.Params.member_draws params ~n:(1024 * 1024) in
  Alcotest.(check bool)
    (Printf.sprintf "slow growth: %d -> %d" d1 d2)
    true
    (d2 - d1 <= 4)

let test_member_draws_log_baseline () =
  let p = Tinygroups.Params.with_sizing params (Tinygroups.Params.Log 2.0) in
  (* 2 ln 65536 ~ 22.18 -> 23. *)
  Alcotest.(check int) "log sizing" 23 (Tinygroups.Params.member_draws p ~n:65536);
  let d1 = Tinygroups.Params.member_draws p ~n:1024 in
  let d2 = Tinygroups.Params.member_draws p ~n:(1024 * 1024) in
  Alcotest.(check bool) "doubles over the square" true (d2 >= 2 * d1 - 2)

let test_member_draws_fixed () =
  let p = Tinygroups.Params.with_sizing params (Tinygroups.Params.Fixed 7) in
  Alcotest.(check int) "fixed" 7 (Tinygroups.Params.member_draws p ~n:4096);
  let p0 = Tinygroups.Params.with_sizing params (Tinygroups.Params.Fixed 0) in
  Alcotest.(check int) "floor of 1" 1 (Tinygroups.Params.member_draws p0 ~n:4096)

let test_min_draws_floor () =
  (* Tiny systems still get at least 3 draws (a majority needs 3). *)
  Alcotest.(check bool) "at least 3" true (Tinygroups.Params.member_draws params ~n:4 >= 3)

let test_bad_tolerance () =
  (* (1 + 0.5) * 0.05 = 0.075 per member. *)
  Alcotest.(check int) "size 10: 0 tolerated" 0
    (Tinygroups.Params.bad_tolerance params ~size:10);
  Alcotest.(check int) "size 20: 1 tolerated" 1
    (Tinygroups.Params.bad_tolerance params ~size:20);
  (* Never tolerate an outright majority. *)
  let loose = { params with Tinygroups.Params.beta = 0.45; delta = 0.5 } in
  Alcotest.(check bool) "capped below half" true
    (Tinygroups.Params.bad_tolerance loose ~size:9 <= 4)

let prop_form_bad_count_matches_labels =
  QCheck.Test.make ~name:"bad_members equals the label count" ~count:200
    QCheck.(pair small_int (int_range 3 30))
    (fun (seed, size) ->
      let r = Prng.Rng.create seed in
      let pop =
        Adversary.Population.generate r ~n:200 ~beta:0.3
          ~strategy:Adversary.Placement.Uniform
      in
      let all = Idspace.Ring.to_sorted_array (Adversary.Population.ring pop) in
      let members =
        List.init size (fun _ -> all.(Prng.Rng.int r (Array.length all)))
      in
      let g =
        Tinygroups.Group.form params pop ~leader:all.(0) ~members
      in
      let counted = ref 0 in
      Array.iteri
        (fun i _ -> if Tinygroups.Group.member_is_bad g i then incr counted)
        g.Tinygroups.Group.members;
      !counted = g.Tinygroups.Group.bad_members
      && Tinygroups.Group.size g = Array.length g.Tinygroups.Group.member_bad)

let prop_majority_consistent =
  QCheck.Test.make ~name:"has_good_majority agrees with health" ~count:200
    QCheck.(pair small_int (int_range 3 30))
    (fun (seed, size) ->
      let r = Prng.Rng.create (seed + 999) in
      let pop =
        Adversary.Population.generate r ~n:200 ~beta:0.4
          ~strategy:Adversary.Placement.Uniform
      in
      let all = Idspace.Ring.to_sorted_array (Adversary.Population.ring pop) in
      let members = List.init size (fun _ -> all.(Prng.Rng.int r (Array.length all))) in
      let g = Tinygroups.Group.form params pop ~leader:all.(0) ~members in
      let hij = g.Tinygroups.Group.health = Tinygroups.Group.Hijacked in
      hij = not (Tinygroups.Group.has_good_majority g))

let () =
  Alcotest.run "group"
    [
      ( "formation",
        [
          Alcotest.test_case "dedup and sort" `Quick test_form_dedups_and_sorts;
          Alcotest.test_case "bad counting" `Quick test_bad_counting;
          Alcotest.test_case "contains" `Quick test_contains;
          Alcotest.test_case "empty rejected" `Quick test_empty_rejected;
        ] );
      ( "health",
        [
          Alcotest.test_case "hijacked" `Quick test_health_hijacked;
          Alcotest.test_case "exact half is hijacked" `Quick test_health_exact_half;
          Alcotest.test_case "weak" `Quick test_health_weak;
          Alcotest.test_case "good" `Quick test_health_good;
          Alcotest.test_case "too small is not good" `Quick test_too_small_not_good;
        ] );
      ( "params",
        [
          Alcotest.test_case "loglog draws" `Quick test_member_draws_loglog;
          Alcotest.test_case "log baseline draws" `Quick test_member_draws_log_baseline;
          Alcotest.test_case "fixed draws" `Quick test_member_draws_fixed;
          Alcotest.test_case "minimum of 3" `Quick test_min_draws_floor;
          Alcotest.test_case "bad tolerance" `Quick test_bad_tolerance;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_form_bad_count_matches_labels; prop_majority_consistent ] );
    ]
