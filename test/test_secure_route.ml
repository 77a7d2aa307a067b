(* Secure search over the group graph: success/failure semantics,
   the search-path truncation rule, message accounting, the two
   failure notions, and the cost of the iterative variant. *)

open Idspace

let rng = Prng.Rng.create 808

let params = Tinygroups.Params.default
let oracle = Hashing.Oracle.make ~system_key:"sr-test" ~label:"h1"

let make ?(n = 512) ?(beta = 0.05) () =
  let pop =
    Adversary.Population.generate (Prng.Rng.split rng) ~n ~beta
      ~strategy:Adversary.Placement.Uniform
  in
  let overlay = Overlay.Chord.make (Adversary.Population.ring pop) in
  ( pop,
    overlay,
    Tinygroups.Group_graph.build_direct ~params ~population:pop ~overlay
      ~member_oracle:oracle () )

let test_success_reaches_responsible () =
  let pop, _, g = make ~beta:0.0 () in
  let ring = Adversary.Population.ring pop in
  let leaders = Tinygroups.Group_graph.leaders g in
  for _ = 1 to 100 do
    let src = leaders.(Prng.Rng.int rng (Array.length leaders)) in
    let key = Point.random rng in
    let o = Tinygroups.Secure_route.search g ~failure:`Majority ~src ~key in
    match o.Tinygroups.Secure_route.result with
    | Ok resp ->
        Alcotest.(check bool) "responsible ID" true
          (Point.equal resp (Ring.successor_exn ring key))
    | Error _ -> Alcotest.fail "no adversary, no failure"
  done

let test_group_path_follows_overlay () =
  let _, overlay, g = make ~beta:0.0 () in
  let leaders = Tinygroups.Group_graph.leaders g in
  let src = leaders.(3) in
  let key = Point.random rng in
  let o = Tinygroups.Secure_route.search g ~failure:`Majority ~src ~key in
  let id_path = overlay.Overlay.Overlay_intf.route ~src ~key in
  Alcotest.(check int) "same path length" (List.length id_path)
    (List.length o.Tinygroups.Secure_route.group_path);
  List.iter2
    (fun a b -> Alcotest.(check bool) "same leaders" true (Point.equal a b))
    id_path o.Tinygroups.Secure_route.group_path

let test_failure_truncates_at_first_red () =
  (* Manufacture a graph where a specific mid-path group is confused,
     and check the search stops exactly there. *)
  let pop, overlay, g = make ~n:128 ~beta:0.0 () in
  let leaders = Tinygroups.Group_graph.leaders g in
  let src = leaders.(0) in
  (* Find a key whose path has at least 3 hops. *)
  let rec find_key () =
    let key = Point.random rng in
    let path = overlay.Overlay.Overlay_intf.route ~src ~key in
    if List.length path >= 3 then (key, path) else find_key ()
  in
  let key, path = find_key () in
  let mid = List.nth path (List.length path / 2) in
  let g2 =
    Tinygroups.Group_graph.assemble ~params ~population:pop ~overlay
      ~groups:(Tinygroups.Group_graph.groups g) ~confused:[ mid ] ()
  in
  let o = Tinygroups.Secure_route.search g2 ~failure:`Majority ~src ~key in
  (match o.Tinygroups.Secure_route.result with
  | Error blocked -> Alcotest.(check bool) "blocked at mid" true (Point.equal blocked mid)
  | Ok _ -> Alcotest.fail "must fail at the confused group");
  (* The search path is the prefix up to and including the red
     group. *)
  let last =
    List.nth o.Tinygroups.Secure_route.group_path
      (List.length o.Tinygroups.Secure_route.group_path - 1)
  in
  Alcotest.(check bool) "path ends at red group" true (Point.equal last mid);
  Alcotest.(check bool) "path is a prefix" true
    (List.length o.Tinygroups.Secure_route.group_path <= List.length path)

let test_conservative_stricter_than_majority () =
  let _, _, g = make ~n:1024 ~beta:0.05 () in
  let leaders = Tinygroups.Group_graph.leaders g in
  let cons_fail = ref 0 and maj_fail = ref 0 in
  for _ = 1 to 500 do
    let src = leaders.(Prng.Rng.int rng (Array.length leaders)) in
    let key = Point.random rng in
    let c = Tinygroups.Secure_route.search g ~failure:`Conservative ~src ~key in
    let m = Tinygroups.Secure_route.search g ~failure:`Majority ~src ~key in
    if not (Tinygroups.Secure_route.succeeded c) then incr cons_fail;
    if not (Tinygroups.Secure_route.succeeded m) then incr maj_fail;
    (* Anything the conservative notion lets through, the majority
       notion must too. *)
    if Tinygroups.Secure_route.succeeded c then
      Alcotest.(check bool) "conservative success implies majority success" true
        (Tinygroups.Secure_route.succeeded m)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "conservative fails more (%d vs %d)" !cons_fail !maj_fail)
    true
    (!cons_fail >= !maj_fail)

let test_message_cost_quadratic_in_group_size () =
  let _, _, g = make ~n:512 ~beta:0.0 () in
  let leaders = Tinygroups.Group_graph.leaders g in
  let src = leaders.(0) in
  let key = Point.random rng in
  let o = Tinygroups.Secure_route.search g ~failure:`Majority ~src ~key in
  let hops = List.length o.Tinygroups.Secure_route.group_path in
  let mean = Tinygroups.Group_graph.mean_group_size g in
  let expected = float_of_int (hops - 1) *. mean *. mean in
  let actual = float_of_int o.Tinygroups.Secure_route.messages in
  Alcotest.(check bool)
    (Printf.sprintf "messages %.0f ~ (hops-1) * g^2 = %.0f" actual expected)
    true
    (actual > expected /. 3. && actual < expected *. 3.)

let test_single_group_path_costs_nothing () =
  let _, _, g = make ~n:64 ~beta:0.0 () in
  let leaders = Tinygroups.Group_graph.leaders g in
  let src = leaders.(0) in
  (* Key owned by src itself: the top of its responsibility arc. *)
  let key = src in
  let o = Tinygroups.Secure_route.search g ~failure:`Majority ~src ~key in
  Alcotest.(check int) "no edges crossed" 0 o.Tinygroups.Secure_route.messages;
  Alcotest.(check bool) "succeeds locally" true (Tinygroups.Secure_route.succeeded o)

let test_group_comm_cost () =
  (* One intra-group all-to-all operation of the group led by [w]
     costs |G|^2 messages: cost (i) of §I. *)
  let _, _, g = make ~n:256 () in
  let w = (Tinygroups.Group_graph.leaders g).(9) in
  let grp = Tinygroups.Group_graph.group_of g w in
  let size = Tinygroups.Group.size grp in
  let r =
    Agreement.Broadcast.send
      ~sender_good:(Array.map not grp.Tinygroups.Group.member_bad)
      ~receiver_count:size ~value:0
      ~forge:(fun ~recipient:_ -> Some 1)
  in
  Alcotest.(check int) "g^2" (size * size) r.Agreement.Broadcast.messages

let test_expected_route_cost () =
  let _, _, g = make ~n:256 () in
  let m = Tinygroups.Group_graph.mean_group_size g in
  Alcotest.(check (float 1e-6)) "formula" (5. *. m *. m)
    (Tinygroups.Secure_route.expected_route_cost g ~hops:5)

let prop_search_deterministic =
  QCheck.Test.make ~name:"searches are deterministic" ~count:30
    QCheck.(pair small_int (float_range 0. 0.999))
    (fun (i, keyf) ->
      let _, _, g = make ~n:128 ~beta:0.1 () in
      let leaders = Tinygroups.Group_graph.leaders g in
      let src = leaders.(i mod Array.length leaders) in
      let key = Point.of_float keyf in
      let o1 = Tinygroups.Secure_route.search g ~failure:`Majority ~src ~key in
      let o2 = Tinygroups.Secure_route.search g ~failure:`Majority ~src ~key in
      o1.Tinygroups.Secure_route.result = o2.Tinygroups.Secure_route.result
      && o1.Tinygroups.Secure_route.messages = o2.Tinygroups.Secure_route.messages)

(* [verdict] is [search] without the path: the same success, message
   count, hop count and stopping group, under both failure notions and
   over every construction. beta 0.2 makes many searches fail. *)
let prop_verdict_is_search =
  QCheck.Test.make ~name:"verdict = search's outcome" ~count:12
    QCheck.(pair small_nat (int_range 0 2))
    (fun (seed, construction) ->
      let r = Prng.Rng.create seed in
      let pop =
        Adversary.Population.generate (Prng.Rng.split r) ~n:256 ~beta:0.2
          ~strategy:Adversary.Placement.Uniform
      in
      let ring = Adversary.Population.ring pop in
      let overlay =
        match construction with
        | 0 -> Overlay.Chord.make ring
        | 1 -> Overlay.Chord_pp.make ~salt:seed ring
        | _ -> Overlay.Debruijn.make ring
      in
      let g =
        Tinygroups.Group_graph.build_direct ~params ~population:pop ~overlay
          ~member_oracle:oracle ()
      in
      let leaders = Tinygroups.Group_graph.leaders g in
      List.for_all
        (fun _ ->
          let src = leaders.(Prng.Rng.int r (Array.length leaders)) in
          let key = Point.random r in
          List.for_all
            (fun failure ->
              let o = Tinygroups.Secure_route.search g ~failure ~src ~key in
              let v = Tinygroups.Secure_route.verdict g ~failure ~src ~key in
              let path = o.Tinygroups.Secure_route.group_path in
              let stop = match o.Tinygroups.Secure_route.result with Ok p | Error p -> p in
              v.Tinygroups.Secure_route.ok = Tinygroups.Secure_route.succeeded o
              && v.Tinygroups.Secure_route.messages = o.Tinygroups.Secure_route.messages
              && v.Tinygroups.Secure_route.hops = List.length path
              && Point.equal v.Tinygroups.Secure_route.stop stop
              && Point.equal stop (List.nth path (List.length path - 1)))
            [ `Conservative; `Majority ])
        (List.init 40 Fun.id))

(* The verdict walk allocates only its state and its result, whatever
   the path length: at most 16 words per search at n = 2048. *)
let test_verdict_allocation () =
  let _, _, g = make ~n:2048 () in
  let leaders = Tinygroups.Group_graph.leaders g in
  let k = 2000 in
  let srcs = Array.init k (fun _ -> leaders.(Prng.Rng.int rng (Array.length leaders))) in
  let keys = Array.init k (fun _ -> Point.random rng) in
  let run () =
    for i = 0 to k - 1 do
      ignore
        (Sys.opaque_identity
           (Tinygroups.Secure_route.verdict g ~failure:`Majority ~src:srcs.(i) ~key:keys.(i)))
    done
  in
  run ();
  let w0 = Gc.minor_words () in
  run ();
  let per_search = (Gc.minor_words () -. w0) /. float_of_int k in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words per verdict <= 16" per_search)
    true (per_search <= 16.)

(* Iterative search. *)

let test_iterative_same_path_different_cost () =
  let _, g =
    Experiments.Common.build_tiny (Prng.Rng.split rng) ~n:512 ~beta:0.05 ()
  in
  let leaders = Tinygroups.Group_graph.leaders g in
  for _ = 1 to 100 do
    let src = leaders.(Prng.Rng.int rng (Array.length leaders)) in
    let key = Point.random rng in
    let r = Tinygroups.Secure_route.search g ~failure:`Majority ~src ~key in
    let i = Tinygroups.Secure_route.search_iterative g ~failure:`Majority ~src ~key in
    Alcotest.(check bool) "same result" true
      (r.Tinygroups.Secure_route.result = i.Tinygroups.Secure_route.result);
    Alcotest.(check bool) "same path" true
      (r.Tinygroups.Secure_route.group_path = i.Tinygroups.Secure_route.group_path);
    if List.length r.Tinygroups.Secure_route.group_path > 2 then
      Alcotest.(check bool) "iterative costs more" true
        (i.Tinygroups.Secure_route.messages > r.Tinygroups.Secure_route.messages)
  done

let test_iterative_cost_formula () =
  let _, g =
    Experiments.Common.build_tiny (Prng.Rng.split rng) ~n:256 ~beta:0.0 ()
  in
  let leaders = Tinygroups.Group_graph.leaders g in
  let src = leaders.(0) in
  let key = Point.random rng in
  let i = Tinygroups.Secure_route.search_iterative g ~failure:`Majority ~src ~key in
  let src_size = Tinygroups.Group.size (Tinygroups.Group_graph.group_of g src) in
  let expected =
    match i.Tinygroups.Secure_route.group_path with
    | [] | [ _ ] -> 0
    | _ :: hops ->
        List.fold_left
          (fun acc w ->
            acc + (2 * src_size * Tinygroups.Group.size (Tinygroups.Group_graph.group_of g w)))
          0 hops
  in
  Alcotest.(check int) "2 |G_src| sum |G_hop|" expected i.Tinygroups.Secure_route.messages

let () =
  Alcotest.run "secure_route"
    [
      ( "semantics",
        [
          Alcotest.test_case "success reaches responsible" `Quick test_success_reaches_responsible;
          Alcotest.test_case "path mirrors overlay route" `Quick test_group_path_follows_overlay;
          Alcotest.test_case "truncation at first red group" `Quick
            test_failure_truncates_at_first_red;
          Alcotest.test_case "conservative vs majority" `Slow
            test_conservative_stricter_than_majority;
        ] );
      ( "costs",
        [
          Alcotest.test_case "quadratic in group size" `Quick
            test_message_cost_quadratic_in_group_size;
          Alcotest.test_case "local search free" `Quick test_single_group_path_costs_nothing;
          Alcotest.test_case "group comm cost" `Quick test_group_comm_cost;
          Alcotest.test_case "expected route cost" `Quick test_expected_route_cost;
        ] );
      ( "iterative-search",
        [
          Alcotest.test_case "same path, higher cost" `Quick
            test_iterative_same_path_different_cost;
          Alcotest.test_case "cost formula" `Quick test_iterative_cost_formula;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_search_deterministic;
          QCheck_alcotest.to_alcotest prop_verdict_is_search;
        ] );
      ("verdict", [ Alcotest.test_case "allocation per search" `Quick test_verdict_allocation ]);
    ]
