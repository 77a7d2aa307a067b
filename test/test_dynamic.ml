(* Batched joins/departures (Dynamic) and timed routing. The
   latency models live in test_latency.ml. *)

open Idspace

let rng = Prng.Rng.create 3030
let h2 = Hashing.Oracle.make ~system_key:"dyn-test" ~label:"h2"
let metrics = Sim.Metrics.create ()

let setup ?(n = 256) ?(beta = 0.05) () =
  let _, g1 = Experiments.Common.build_tiny (Prng.Rng.split rng) ~n ~beta () in
  let _, g2 = Experiments.Common.build_tiny (Prng.Rng.split rng) ~n ~beta () in
  (g1, Tinygroups.Membership.make_old_pair ~failure:`Majority g1 (Some g2))

(* A single join or departure is a one-ID batch. *)
let join_one ?(m = metrics) g ~old_pair ~id ~bad =
  Tinygroups.Dynamic.join_many (Prng.Rng.split rng) m g ~old_pair ~member_oracle:h2
    ~ids:[ (id, bad) ]

let depart_one g ~id = Tinygroups.Dynamic.depart_many g ~ids:[ id ]

(* Same graph: the structural gate of the jobs-invariance tests, plus
   the census. *)
let same_graph g1 g2 =
  Tinygroups.Group_graph.equal g1 g2
  && Tinygroups.Group_graph.census g1 = Tinygroups.Group_graph.census g2

let test_join_adds_id () =
  let g, old_pair = setup () in
  let id = Point.of_float 0.123456789 in
  let m = Sim.Metrics.create () in
  let g', cost = join_one ~m g ~old_pair ~id ~bad:false in
  Alcotest.(check int) "one more group" (Tinygroups.Group_graph.n_groups g + 1)
    (Tinygroups.Group_graph.n_groups g');
  Alcotest.(check bool) "id is a leader now" true
    (Idspace.Ring.mem id
       (Adversary.Population.ring (Tinygroups.Group_graph.population g')));
  Alcotest.(check bool) "join did searches" true (cost.Tinygroups.Dynamic.searches > 0);
  Alcotest.(check bool) "join cost messages" true (cost.Tinygroups.Dynamic.messages > 0);
  Alcotest.(check int) "one overlay rebuild" 1
    (Sim.Metrics.get m Sim.Metrics.overlay_rebuilds);
  (* The newcomer's group exists and has members from the old
     population; each of its memberships is one update. *)
  let grp = Tinygroups.Group_graph.group_of g' id in
  Alcotest.(check bool) "group formed" true (Tinygroups.Group.size grp >= 1);
  Alcotest.(check int) "membership updates counted" (Tinygroups.Group.size grp)
    cost.Tinygroups.Dynamic.member_updates

let test_join_rejects_duplicate () =
  let g, old_pair = setup () in
  let existing = (Tinygroups.Group_graph.leaders g).(0) in
  Alcotest.check_raises "duplicate join" (Invalid_argument "Dynamic.join_many: ID already present")
    (fun () -> ignore (join_one g ~old_pair ~id:existing ~bad:false))

let test_join_captured_groups_link_back () =
  let g, old_pair = setup () in
  let id = Point.of_float 0.42424242 in
  let captured = Tinygroups.Dynamic.captured_by g ~id in
  Alcotest.(check bool) "someone captures the newcomer" true (List.length captured > 0);
  let g', cost = join_one g ~old_pair ~id ~bad:false in
  Alcotest.(check int) "cost reports them" (List.length captured)
    cost.Tinygroups.Dynamic.affected_groups;
  (* After the join, each captured leader's neighbour set indeed
     contains the newcomer. *)
  List.iter
    (fun v ->
      Alcotest.(check bool) "links to newcomer" true
        (List.exists (Point.equal id)
           ((Tinygroups.Group_graph.overlay g').Overlay.Overlay_intf.neighbors v)))
    captured

let test_depart_removes_and_updates_members () =
  let g, _ = setup ~beta:0.0 () in
  let victim = (Tinygroups.Group_graph.leaders g).(7) in
  (* Count the groups the victim serves in beforehand. *)
  let serving =
    Tinygroups.Group_graph.fold_groups
      (fun _ grp acc -> if Tinygroups.Group.contains grp victim then acc + 1 else acc)
      g 0
  in
  let g', cost = depart_one g ~id:victim in
  Alcotest.(check int) "one fewer group" (Tinygroups.Group_graph.n_groups g - 1)
    (Tinygroups.Group_graph.n_groups g');
  Alcotest.(check int) "membership updates counted" serving
    cost.Tinygroups.Dynamic.member_updates;
  (* No remaining group contains the departed ID (unless it was the
     group's sole member, which cannot happen for formed groups of
     size >= 3). *)
  Tinygroups.Group_graph.iter_groups
    (fun _ grp ->
      if Tinygroups.Group.size grp >= 2 then
        Alcotest.(check bool) "member excised" false (Tinygroups.Group.contains grp victim))
    g'

(* The fold of one-ID departures over [ids]: the final graph, its
   summed member updates, and how many of those updates hit a group
   whose leader departs later in the list. *)
let depart_fold g ids =
  let rec go h upd doomed = function
    | [] -> (h, upd, doomed)
    | id :: later ->
        let doomed =
          Tinygroups.Group_graph.fold_groups
            (fun w grp acc ->
              if List.exists (Point.equal w) later && Tinygroups.Group.contains grp id
              then acc + 1
              else acc)
            h doomed
        in
        let h', c = depart_one h ~id in
        go h' (upd + c.Tinygroups.Dynamic.member_updates) doomed later
  in
  go g 0 0 ids

let test_depart_many_equals_sequential () =
  (* Churn batching: the merged-ring batch departure must produce the
     same graph as the fold of one-ID batches (the golden digests for
     e10/e17/e20 cover the integrated per-event path; this pins the
     batch form at the unit level). *)
  let g, _ = setup ~n:128 ~beta:0.05 () in
  let leaders = Tinygroups.Group_graph.leaders g in
  let ids = [ leaders.(3); leaders.(40); leaders.(77); leaders.(11); leaders.(126) ] in
  let batched, bcost = Tinygroups.Dynamic.depart_many g ~ids in
  let sequential, supd, doomed = depart_fold g ids in
  Alcotest.(check bool) "same graph as the fold of one-ID batches" true
    (same_graph batched sequential);
  Alcotest.(check int) "membership updates: the fold's, less doomed groups'"
    (supd - doomed) bcost.Tinygroups.Dynamic.member_updates;
  (* A group whose leader departs after one of its members: the fold
     drops the member first, the batch excises the group without. *)
  let w = leaders.(40) in
  let m =
    List.find
      (fun p -> not (Point.equal p w))
      (Array.to_list (Tinygroups.Group_graph.group_of g w).Tinygroups.Group.members)
  in
  let _, pcost = Tinygroups.Dynamic.depart_many g ~ids:[ m; w ] in
  let _, pupd, pdoomed = depart_fold g [ m; w ] in
  Alcotest.(check int) "one doomed update" 1 pdoomed;
  Alcotest.(check int) "batch skips the doomed update" (pupd - 1)
    pcost.Tinygroups.Dynamic.member_updates;
  Alcotest.check_raises "absent ID rejected"
    (Invalid_argument "Dynamic.depart_many: unknown ID") (fun () ->
      ignore (Tinygroups.Dynamic.depart_many g ~ids:[ Point.of_float 0.5757575 ]));
  Alcotest.check_raises "duplicate ID rejected"
    (Invalid_argument "Dynamic.depart_many: unknown ID") (fun () ->
      ignore (Tinygroups.Dynamic.depart_many g ~ids:[ leaders.(3); leaders.(3) ]))

let test_join_many_equals_sequential () =
  (* A k-ID batch must replay the per-ID protocol (PRNG draw order
     included) exactly as the fold of k one-ID batches: same graph,
     same bad ring, same aggregate cost. The fold pays k overlay
     rebuilds, population merges and graph assemblies; the batch one
     of each. *)
  let g, old_pair = setup ~n:128 ~beta:0.05 () in
  let ids =
    [
      (Point.of_float 0.111111, false);
      (Point.of_float 0.222222, true);
      (Point.of_float 0.333333, false);
      (Point.of_float 0.444444, false);
    ]
  in
  let rng_b = Prng.Rng.create 99 and rng_s = Prng.Rng.create 99 in
  let m_b = Sim.Metrics.create () and m_s = Sim.Metrics.create () in
  let batched, bcost =
    Tinygroups.Dynamic.join_many rng_b m_b g ~old_pair ~member_oracle:h2 ~ids
  in
  let sequential, s_searches, s_msgs, s_affected, s_upd =
    List.fold_left
      (fun (h, srch, msgs, aff, upd) id_bad ->
        let h', c =
          Tinygroups.Dynamic.join_many rng_s m_s h ~old_pair ~member_oracle:h2
            ~ids:[ id_bad ]
        in
        ( h',
          srch + c.Tinygroups.Dynamic.searches,
          msgs + c.Tinygroups.Dynamic.messages,
          aff + c.Tinygroups.Dynamic.affected_groups,
          upd + c.Tinygroups.Dynamic.member_updates ))
      (g, 0, 0, 0, 0) ids
  in
  Alcotest.(check bool) "same graph as the fold of one-ID batches" true
    (same_graph batched sequential);
  Alcotest.(check bool) "same bad ring" true
    (Idspace.Ring.equal
       (Adversary.Population.bad_ring (Tinygroups.Group_graph.population batched))
       (Adversary.Population.bad_ring (Tinygroups.Group_graph.population sequential)));
  Alcotest.(check int) "same search count" s_searches bcost.Tinygroups.Dynamic.searches;
  Alcotest.(check int) "same message count" s_msgs bcost.Tinygroups.Dynamic.messages;
  Alcotest.(check int) "same affected-group count" s_affected
    bcost.Tinygroups.Dynamic.affected_groups;
  Alcotest.(check int) "same membership-update count" s_upd
    bcost.Tinygroups.Dynamic.member_updates;
  (* The O(1)-rebuild contract: the batch charges exactly one overlay
     reconstruction however many newcomers it admits, while the fold
     pays one per one-ID batch — the whole point of the batched form. *)
  Alcotest.(check int) "one overlay rebuild per batch" 1
    (Sim.Metrics.get m_b Sim.Metrics.overlay_rebuilds);
  Alcotest.(check int) "fold pays one rebuild per join" (List.length ids)
    (Sim.Metrics.get m_s Sim.Metrics.overlay_rebuilds);
  let present = (Tinygroups.Group_graph.leaders g).(0) in
  Alcotest.check_raises "present ID rejected"
    (Invalid_argument "Dynamic.join_many: ID already present") (fun () ->
      ignore
        (Tinygroups.Dynamic.join_many (Prng.Rng.split rng) metrics g ~old_pair
           ~member_oracle:h2 ~ids:[ (present, false) ]));
  Alcotest.check_raises "duplicate ID rejected"
    (Invalid_argument "Dynamic.join_many: ID already present") (fun () ->
      ignore
        (Tinygroups.Dynamic.join_many (Prng.Rng.split rng) metrics g ~old_pair
           ~member_oracle:h2
           ~ids:[ (Point.of_float 0.55, false); (Point.of_float 0.55, true) ]))

let zero_cost =
  {
    Tinygroups.Dynamic.searches = 0;
    messages = 0;
    affected_groups = 0;
    member_updates = 0;
  }

let test_join_many_empty () =
  let g, old_pair = setup () in
  let m = Sim.Metrics.create () in
  let g', cost =
    Tinygroups.Dynamic.join_many (Prng.Rng.split rng) m g ~old_pair ~member_oracle:h2
      ~ids:[]
  in
  Alcotest.(check bool) "graph unchanged" true (Tinygroups.Group_graph.equal g g');
  Alcotest.(check bool) "zero cost" true (cost = zero_cost);
  Alcotest.(check int) "no overlay rebuild" 0
    (Sim.Metrics.get m Sim.Metrics.overlay_rebuilds)

let test_depart_many_empty () =
  let g, _ = setup () in
  let g', cost = Tinygroups.Dynamic.depart_many g ~ids:[] in
  Alcotest.(check bool) "graph unchanged" true (Tinygroups.Group_graph.equal g g');
  Alcotest.(check bool) "zero cost" true (cost = zero_cost);
  (* depart_many takes no metrics sink: a rebuild would show as a
     fresh overlay value. *)
  Alcotest.(check bool) "no overlay rebuild" true
    (Tinygroups.Group_graph.overlay g' == Tinygroups.Group_graph.overlay g)

let test_depart_unknown_rejected () =
  let g, _ = setup () in
  Alcotest.check_raises "unknown" (Invalid_argument "Dynamic.depart_many: unknown ID") (fun () ->
      ignore (depart_one g ~id:(Point.of_float 0.987654321)))

let test_join_then_search_works () =
  let g, old_pair = setup ~beta:0.0 () in
  let id = Point.of_float 0.31415 in
  let g', _ = join_one g ~old_pair ~id ~bad:false in
  (* Searches from and towards the newcomer succeed. *)
  let o =
    Tinygroups.Secure_route.search g' ~failure:`Majority ~src:id ~key:(Point.random rng)
  in
  Alcotest.(check bool) "newcomer can search" true (Tinygroups.Secure_route.succeeded o);
  let other = (Tinygroups.Group_graph.leaders g').(3) in
  let towards =
    Tinygroups.Secure_route.search g' ~failure:`Majority ~src:other
      ~key:(Point.add_cw id (-1))
  in
  Alcotest.(check bool) "newcomer reachable" true (Tinygroups.Secure_route.succeeded towards)

let test_churn_sequence_stays_healthy () =
  let g, old_pair = setup ~n:256 ~beta:0.05 () in
  let live = ref g in
  for i = 0 to 14 do
    let id = Point.of_float (0.001 +. (0.066 *. float_of_int i)) in
    if not (Idspace.Ring.mem id (Adversary.Population.ring (Tinygroups.Group_graph.population !live))) then begin
      let g', _ = join_one !live ~old_pair ~id ~bad:(i mod 5 = 0) in
      live := g'
    end;
    let leaders = Tinygroups.Group_graph.leaders !live in
    let victim = leaders.(Prng.Rng.int rng (Array.length leaders)) in
    let g'', _ = depart_one !live ~id:victim in
    live := g''
  done;
  let c = Tinygroups.Group_graph.census !live in
  Alcotest.(check bool) "size steady" true (abs (c.total - 256) <= 1);
  Alcotest.(check bool)
    (Printf.sprintf "healthy after churn (hij %d conf %d)" c.hijacked_ c.confused_)
    true
    (c.hijacked_ + c.confused_ < 26)

(* Timed routing. *)

let test_quorum_wait_grows_with_processing () =
  let l = Sim.Latency.constant 10 in
  let fast =
    Tinygroups.Timed_route.quorum_wait rng l ~per_message_ms:0 ~senders:11 ~receivers:11 ()
  in
  let slow =
    Tinygroups.Timed_route.quorum_wait rng l ~per_message_ms:10 ~senders:11 ~receivers:11 ()
  in
  Alcotest.(check int) "pure RTT: the constant" 10 fast;
  (* Serial processing of the 6-message quorum at 10ms each. *)
  Alcotest.(check int) "processing adds 6 x 10" 70 slow

let test_timed_search_consistency () =
  let g, _ = setup ~beta:0.0 () in
  let leaders = Tinygroups.Group_graph.leaders g in
  let l = Sim.Latency.constant 10 in
  for _ = 1 to 30 do
    let src = leaders.(Prng.Rng.int rng (Array.length leaders)) in
    let key = Point.random rng in
    let t =
      Tinygroups.Timed_route.search (Prng.Rng.split rng) g ~latency:l ~per_message_ms:0
        ~failure:`Majority ~src ~key
    in
    Alcotest.(check bool) "succeeds" true t.Tinygroups.Timed_route.succeeded;
    (* With constant latency and no processing, elapsed = 10ms per
       edge. *)
    Alcotest.(check int) "10ms per hop"
      (10 * List.length t.Tinygroups.Timed_route.per_hop_ms)
      t.Tinygroups.Timed_route.elapsed_ms
  done

let () =
  Alcotest.run "dynamic"
    [
      ( "join",
        [
          Alcotest.test_case "adds the ID" `Quick test_join_adds_id;
          Alcotest.test_case "rejects duplicates" `Quick test_join_rejects_duplicate;
          Alcotest.test_case "captured groups link back" `Quick
            test_join_captured_groups_link_back;
          Alcotest.test_case "newcomer searchable" `Quick test_join_then_search_works;
          Alcotest.test_case "batch = one-at-a-time" `Quick
            test_join_many_equals_sequential;
          Alcotest.test_case "empty batch" `Quick test_join_many_empty;
        ] );
      ( "depart",
        [
          Alcotest.test_case "removes and updates" `Quick test_depart_removes_and_updates_members;
          Alcotest.test_case "unknown rejected" `Quick test_depart_unknown_rejected;
          Alcotest.test_case "batch = one-at-a-time" `Quick
            test_depart_many_equals_sequential;
          Alcotest.test_case "empty batch" `Quick test_depart_many_empty;
          Alcotest.test_case "churn sequence" `Slow test_churn_sequence_stays_healthy;
        ] );
      ( "timed-route",
        [
          Alcotest.test_case "quorum wait vs processing" `Quick
            test_quorum_wait_grows_with_processing;
          Alcotest.test_case "timed search consistency" `Quick test_timed_search_consistency;
        ] );
    ]
