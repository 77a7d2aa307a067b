(* The group graph: direct construction (S1-S3), census, colors, and
   the assemble constructor used by the epoch protocol. *)

open Idspace

let rng = Prng.Rng.create 404

let params = Tinygroups.Params.default
let oracle = Hashing.Oracle.make ~system_key:"gg-test" ~label:"h1"

let make ?(n = 512) ?(beta = 0.05) ?(strategy = Adversary.Placement.Uniform) () =
  let pop = Adversary.Population.generate (Prng.Rng.split rng) ~n ~beta ~strategy in
  let overlay = Overlay.Chord.make (Adversary.Population.ring pop) in
  (pop, Tinygroups.Group_graph.build_direct ~params ~population:pop ~overlay ~member_oracle:oracle ())

let test_one_group_per_id () =
  let pop, g = make () in
  Alcotest.(check int) "S1: one group per ID" (Adversary.Population.n pop)
    (Tinygroups.Group_graph.n_groups g);
  Array.iter
    (fun w ->
      let grp = Tinygroups.Group_graph.group_of g w in
      Alcotest.(check bool) "leader matches" true (Point.equal grp.Tinygroups.Group.leader w))
    (Tinygroups.Group_graph.leaders g)

let test_group_membership_from_oracle () =
  (* Members must be the ring successors of the oracle points
     (verifiable by any participant, per P3). *)
  let pop, g = make ~n:256 () in
  let ring = Adversary.Population.ring pop in
  let w = (Tinygroups.Group_graph.leaders g).(17) in
  let grp = Tinygroups.Group_graph.group_of g w in
  Array.iter
    (fun m ->
      let justified = ref false in
      for i = 1 to 64 do
        let p = Point.of_u62 (Hashing.Oracle.query_indexed oracle (Point.to_u62 w) i) in
        if Point.equal m (Ring.successor_exn ring p) then justified := true
      done;
      Alcotest.(check bool) "member verifiable from hash points" true !justified)
    grp.Tinygroups.Group.members

(* Forming a group allocates its record and member arrays, not its
   member draws: under 100 words per group at n = 2048. *)
let test_form_group_allocation () =
  let pop = Adversary.Population.generate (Prng.Rng.split rng) ~n:2048 ~beta:0.05
      ~strategy:Adversary.Placement.Uniform in
  let b = Tinygroups.Group_graph.Builder.create ~params ~population:pop ~member_oracle:oracle in
  let k = 2000 in
  let ws = Array.init k (fun _ -> Point.random rng) in
  let run () =
    for i = 0 to k - 1 do
      ignore (Sys.opaque_identity (Tinygroups.Group_graph.Builder.form_group b ws.(i)))
    done
  in
  run ();
  let w0 = Gc.minor_words () in
  run ();
  let per_group = (Gc.minor_words () -. w0) /. float_of_int k in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words per form_group < 100" per_group)
    true (per_group < 100.)

let test_group_sizes_near_d2_lnln () =
  let _, g = make ~n:1024 () in
  let m = Tinygroups.Group_graph.mean_group_size g in
  let expected = 5. *. Idspace.Estimate.exact_ln_ln 1024 in
  Alcotest.(check bool)
    (Printf.sprintf "mean size %.1f ~ %.1f" m expected)
    true
    (Float.abs (m -. expected) < 4.)

let test_census_consistency () =
  let _, g = make ~beta:0.15 () in
  let c = Tinygroups.Group_graph.census g in
  Alcotest.(check int) "partition by health" c.total (c.good + c.weak + c.hijacked_);
  Alcotest.(check bool) "red >= hijacked" true (c.red >= c.hijacked_);
  Alcotest.(check bool) "red >= total - good" true (c.red >= c.total - c.good);
  Alcotest.(check (float 1e-9)) "fraction_red consistent"
    (float_of_int c.red /. float_of_int c.total)
    (Tinygroups.Group_graph.fraction_red g)

let test_no_adversary_no_hijack () =
  let _, g = make ~beta:0.0 () in
  let c = Tinygroups.Group_graph.census g in
  Alcotest.(check int) "no hijacked groups" 0 c.hijacked_;
  Alcotest.(check int) "everything good" c.total c.good

let test_hijack_rate_tracks_chernoff () =
  (* E1's claim in miniature: the majority-loss rate is near the
     binomial tail for the realised group size. *)
  let _, g = make ~n:4096 ~beta:0.10 () in
  let c = Tinygroups.Group_graph.census g in
  let size = int_of_float (Tinygroups.Group_graph.mean_group_size g) in
  let k = (size / 2) + 1 in
  let predicted = Stats.Bounds.binomial_tail_ge ~n:size ~p:0.12 ~k in
  let observed = float_of_int c.hijacked_ /. float_of_int c.total in
  (* Within an order of magnitude (load imbalance biases member
     badness above beta). *)
  Alcotest.(check bool)
    (Printf.sprintf "observed %.4f vs predicted %.4f" observed predicted)
    true
    (observed < Float.max (predicted *. 10.) 0.01)

let test_clustered_adversary_captures_local_keys () =
  (* What PoW's uniform placement prevents is *targeted ownership*:
     an adversary who can choose positions captures almost every key
     in its target arc (censorship of chosen resources), while under
     uniform placement it owns only ~beta of them. Interestingly the
     hash-drawn group membership itself is robust to clustering —
     clustered bad IDs own *less* total key space — which is exactly
     why the threat model is about key capture, not group capture. *)
  let arc = Interval.make ~from:(Point.of_float 0.4) ~until:(Point.of_float 0.41) in
  let pop_c, _ = make ~n:1024 ~beta:0.05 ~strategy:(Adversary.Placement.Cluster arc) () in
  let pop_u, _ = make ~n:1024 ~beta:0.05 () in
  let captured pop =
    let ring = Adversary.Population.ring pop in
    let hits = ref 0 in
    for _ = 1 to 500 do
      let key = Interval.sample rng arc in
      if Adversary.Population.is_bad pop (Ring.successor_exn ring key) then incr hits
    done;
    float_of_int !hits /. 500.
  in
  let c = captured pop_c and u = captured pop_u in
  Alcotest.(check bool)
    (Printf.sprintf "clustered captures %.2f of target keys vs %.2f uniform" c u)
    true
    (c > 0.8 && u < 0.3)

let test_lemma5_withholding_adversary () =
  (* Lemma 5: properties and construction survive an adversary that
     fields only a subset of its entitled IDs (the Omit strategy).
     The withheld IDs change the ring's topology, but searches and
     health stay at the uniform-adversary level. *)
  let _, g =
    make ~n:1024 ~beta:0.10 ~strategy:(Adversary.Placement.Omit 0.6) ()
  in
  let c = Tinygroups.Group_graph.census g in
  Alcotest.(check bool)
    (Printf.sprintf "few hijacked groups (%d)" c.hijacked_)
    true
    (c.hijacked_ < c.total / 50);
  let leaders = Tinygroups.Group_graph.leaders g in
  let ok = ref 0 in
  let samples = 300 in
  for _ = 1 to samples do
    let src = leaders.(Prng.Rng.int rng (Array.length leaders)) in
    let key = Point.random rng in
    if
      Tinygroups.Secure_route.succeeded
        (Tinygroups.Secure_route.search g ~failure:`Majority ~src ~key)
    then incr ok
  done;
  Alcotest.(check bool)
    (Printf.sprintf "searches unaffected (%d/%d)" !ok samples)
    true
    (!ok > samples * 95 / 100);
  (* The realised adversary share is indeed below its entitlement. *)
  Alcotest.(check bool) "withheld IDs stayed out" true
    (Adversary.Population.beta_actual (Tinygroups.Group_graph.population g) < 0.08)

let test_blue_leaders_cache () =
  let _, g = make ~beta:0.2 () in
  let b1 = Tinygroups.Group_graph.blue_leaders g in
  let b2 = Tinygroups.Group_graph.blue_leaders g in
  Alcotest.(check bool) "built once (same array)" true (b1 == b2);
  Array.iter
    (fun w ->
      Alcotest.(check bool) "every cached leader is blue" true
        (Tinygroups.Group_graph.color_of g w = Tinygroups.Group_graph.Blue))
    b1

let test_random_blue_leader () =
  let _, g = make ~beta:0.1 () in
  match Tinygroups.Group_graph.random_blue_leader rng g with
  | Some w ->
      Alcotest.(check bool) "blue" true
        (Tinygroups.Group_graph.color_of g w = Tinygroups.Group_graph.Blue)
  | None -> Alcotest.fail "expected blue groups at beta = 0.1"

let test_confusion_makes_red () =
  let pop, g = make ~n:64 ~beta:0.0 () in
  let leaders = Tinygroups.Group_graph.leaders g in
  let confused_leader = leaders.(5) in
  let g2 =
    Tinygroups.Group_graph.assemble ~params ~population:pop
      ~overlay:(Tinygroups.Group_graph.overlay g) ~groups:(Tinygroups.Group_graph.groups g)
      ~confused:[ confused_leader ] ()
  in
  Alcotest.(check bool) "confused leader is red" true
    (Tinygroups.Group_graph.color_of g2 confused_leader = Tinygroups.Group_graph.Red);
  Alcotest.(check bool) "confused counts as hijacked-for-routing" true
    (Tinygroups.Group_graph.hijacked g2 confused_leader);
  let c = Tinygroups.Group_graph.census g2 in
  Alcotest.(check int) "census sees one confused" 1 c.confused_

(* Colours are fixed when a graph is made: confused and suspect marks
   go in through [assemble], and the marked graph's blue leaders,
   census and searches see them while the unmarked graph is
   untouched. *)
let test_assemble_marks_fix_colours () =
  let pop, g = make ~n:64 ~beta:0.0 () in
  let blue_before = Array.copy (Tinygroups.Group_graph.blue_leaders g) in
  let victim = blue_before.(7) in
  let src = blue_before.(20) in
  let reaches g =
    Tinygroups.Secure_route.succeeded
      (Tinygroups.Secure_route.search g ~failure:`Majority ~src ~key:victim)
  in
  Alcotest.(check bool) "search reaches the victim's arc on the unmarked graph" true
    (reaches g);
  let marked =
    Tinygroups.Group_graph.assemble ~params ~population:pop
      ~overlay:(Tinygroups.Group_graph.overlay g) ~groups:(Tinygroups.Group_graph.groups g)
      ~confused:[ victim ] ~suspect:[ src ] ()
  in
  let blue_after = Tinygroups.Group_graph.blue_leaders marked in
  Alcotest.(check int) "one fewer blue leader"
    (Array.length blue_before - 1)
    (Array.length blue_after);
  Alcotest.(check bool) "confused leader left the blue leaders" false
    (Array.exists (Point.equal victim) blue_after);
  Alcotest.(check bool) "confused leader is red" true
    (Tinygroups.Group_graph.color_of marked victim = Tinygroups.Group_graph.Red);
  let c = Tinygroups.Group_graph.census marked in
  Alcotest.(check int) "census counts the confusion" 1 c.confused_;
  Alcotest.(check int) "census counts the suspect" 1 c.suspect_;
  (* The victim's own arc is behind a red group in the marked graph. *)
  Alcotest.(check bool) "search into the confused arc fails" false (reaches marked);
  Alcotest.(check bool) "suspect flagged" true
    (Tinygroups.Group_graph.is_suspect marked src);
  Alcotest.(check bool) "suspect stays blue" true
    (Array.exists (Point.equal src) blue_after);
  Alcotest.(check bool) "unmarked graph unchanged" true
    (Tinygroups.Group_graph.blue_leaders g = blue_before && reaches g)

let test_assemble_validations () =
  let pop, g = make ~n:32 ~beta:0.0 () in
  let all_groups = Tinygroups.Group_graph.groups g in
  let n = Array.length all_groups in
  let assemble groups =
    ignore
      (Tinygroups.Group_graph.assemble ~params ~population:pop
         ~overlay:(Tinygroups.Group_graph.overlay g) ~groups ~confused:[] ())
  in
  (* One group short. *)
  Alcotest.check_raises "short array"
    (Invalid_argument "Group_graph.assemble: one group per ID expected") (fun () ->
      assemble (Array.sub all_groups 1 (n - 1)));
  (* The right groups, rotated by one rank: every leader is present
     exactly once, but none sits at its own rank. *)
  Alcotest.check_raises "rank-shifted array"
    (Invalid_argument "Group_graph.assemble: groups not in ring-rank order") (fun () ->
      assemble (Array.init n (fun r -> all_groups.((r + 1) mod n))));
  (* [groups] is a copy in rank order: assembling it back gives the
     same graph. *)
  Alcotest.(check bool) "groups round-trips" true
    (Tinygroups.Group_graph.equal g
       (Tinygroups.Group_graph.assemble ~params ~population:pop
          ~overlay:(Tinygroups.Group_graph.overlay g) ~groups:all_groups ~confused:[] ()))

(* Searches read the group at each rank the overlay's walk produces,
   so a view over another ring would route through the wrong groups
   without a word: both constructors must refuse it. A view over an
   equal copy of the ring (not the same value) is fine. *)
let test_overlay_ring_must_match () =
  let pop, g = make ~n:64 ~beta:0.0 () in
  let ring = Adversary.Population.ring pop in
  let other = Overlay.Chord.make (Ring.populate (Prng.Rng.split rng) 64) in
  let want = Invalid_argument "Group_graph: overlay ring is not the population's ring" in
  Alcotest.check_raises "build_direct" want (fun () ->
      ignore
        (Tinygroups.Group_graph.build_direct ~params ~population:pop ~overlay:other
           ~member_oracle:oracle ()));
  let groups = Tinygroups.Group_graph.groups g in
  Alcotest.check_raises "assemble" want (fun () ->
      ignore
        (Tinygroups.Group_graph.assemble ~params ~population:pop ~overlay:other ~groups
           ~confused:[] ()));
  let copy = Overlay.Chord.make (Ring.of_array (Ring.to_sorted_array ring)) in
  let g' =
    Tinygroups.Group_graph.assemble ~params ~population:pop ~overlay:copy ~groups
      ~confused:[] ()
  in
  Alcotest.(check bool) "equal ring accepted" true (Tinygroups.Group_graph.equal g g')

let test_groups_per_id_positive () =
  let _, g = make ~n:512 () in
  let counts = Tinygroups.Group_graph.groups_per_id g in
  let total = Hashtbl.fold (fun _ c acc -> acc + c) counts 0 in
  (* Total memberships = sum of group sizes. *)
  let expected =
    Tinygroups.Group_graph.fold_groups
      (fun _ grp acc -> acc + Tinygroups.Group.size grp)
      g 0
  in
  Alcotest.(check int) "membership bookkeeping balances" expected total

let test_parallel_build_identical () =
  (* The deterministic rank-split: fanning the formation loop over
     domains must be invisible — same groups, same order, same
     census at jobs = 1 and jobs = 4. *)
  let pop =
    Adversary.Population.generate (Prng.Rng.split rng) ~n:512 ~beta:0.05
      ~strategy:Adversary.Placement.Uniform
  in
  let overlay = Overlay.Chord.make (Adversary.Population.ring pop) in
  let build jobs =
    Tinygroups.Group_graph.build_direct ~jobs ~params ~population:pop ~overlay
      ~member_oracle:oracle ()
  in
  let g1 = build 1 and g4 = build 4 in
  let collect g =
    Tinygroups.Group_graph.fold_groups
      (fun w grp acc ->
        (w, grp.Tinygroups.Group.members, grp.Tinygroups.Group.health) :: acc)
      g []
  in
  Alcotest.(check bool) "identical groups at jobs 1 vs 4" true
    (collect g1 = collect g4);
  Alcotest.(check bool) "identical census" true
    (Tinygroups.Group_graph.census g1 = Tinygroups.Group_graph.census g4);
  (* Four slices over five ranks: every rank must land in exactly
     one slice. *)
  let small =
    (* Own stream: the shared [rng] feeds the tests after this one. *)
    Adversary.Population.generate (Prng.Rng.create 5) ~n:5 ~beta:0.
      ~strategy:Adversary.Placement.Uniform
  in
  let overlay = Overlay.Chord.make (Adversary.Population.ring small) in
  let build jobs =
    Tinygroups.Group_graph.build_direct ~jobs ~params ~population:small ~overlay
      ~member_oracle:oracle ()
  in
  Alcotest.(check bool) "n = 5 at jobs 4 = jobs 1" true
    (Tinygroups.Group_graph.equal (build 1) (build 4))

let prop_iter_order_is_ring_order =
  QCheck.Test.make ~name:"iter_groups visits leaders in ring order" ~count:10
    QCheck.small_int (fun seed ->
      let pop =
        Adversary.Population.generate (Prng.Rng.create seed) ~n:96 ~beta:0.1
          ~strategy:Adversary.Placement.Uniform
      in
      let overlay = Overlay.Chord.make (Adversary.Population.ring pop) in
      let g =
        Tinygroups.Group_graph.build_direct ~params ~population:pop ~overlay
          ~member_oracle:oracle ()
      in
      let visited = ref [] in
      Tinygroups.Group_graph.iter_groups (fun w _ -> visited := w :: !visited) g;
      Array.of_list (List.rev !visited) = Tinygroups.Group_graph.leaders g)

(* Point-keyed queries find the leader's rank through the ring; they
   must agree with the rank accessors on every leader and refuse every
   point that leads no group. *)
let prop_point_queries_match_ranks =
  QCheck.Test.make ~name:"point queries = rank queries; non-leaders refused"
    ~count:30
    QCheck.(pair small_int (int_range 3 200))
    (fun (seed, n) ->
      let module G = Tinygroups.Group_graph in
      let r = Prng.Rng.create seed in
      let pop =
        Adversary.Population.generate (Prng.Rng.split r) ~n ~beta:0.25
          ~strategy:Adversary.Placement.Uniform
      in
      let ring = Adversary.Population.ring pop in
      let overlay = Overlay.Chord.make ring in
      let built = G.build_direct ~params ~population:pop ~overlay ~member_oracle:oracle () in
      let marks () = List.init 3 (fun _ -> Ring.nth ring (Prng.Rng.int r n)) in
      let assemble ~confused ~suspect =
        G.assemble ~params ~population:pop ~overlay ~groups:(G.groups built) ~confused
          ~suspect ()
      in
      let g = assemble ~confused:(marks ()) ~suspect:[] in
      let leader_ok p =
        let rank = Ring.rank ring p in
        G.group_of g p == G.group_at g rank
        && (G.color_of g p = G.Red) = G.red_at g rank
        && G.hijacked g p = G.hijacked_at g rank
      in
      let raises exn f = match f () with _ -> false | exception e -> e = exn in
      let off_ring_ok p =
        raises Not_found (fun () -> G.group_of g p)
        && raises Not_found (fun () -> G.color_of g p)
        && raises Not_found (fun () -> G.hijacked g p)
        && raises
             (Invalid_argument "Group_graph.assemble: confused leader not in population")
             (fun () -> assemble ~confused:[ p ] ~suspect:[])
        && raises
             (Invalid_argument "Group_graph.assemble: suspect leader not in population")
             (fun () -> assemble ~confused:[] ~suspect:[ p ])
      in
      let rec off_ring () =
        let p = Point.random r in
        if Ring.mem p ring then off_ring () else p
      in
      Array.for_all leader_ok (G.leaders g)
      && List.for_all off_ring_ok (List.init 20 (fun _ -> off_ring ())))

(* The indices a graph and its population build when made must equal
   a fresh scan: the blue leaders are the ranks that are not red, in
   rank order, and the good IDs are the ring minus the bad ring. The
   law covers every way a graph is made: [build_direct], [assemble]
   with random marks, churn batches, and epoch transitions benign and
   under a drop plan masked by retries (which leaves suspect
   routes). *)
let indices_fresh g =
  let module G = Tinygroups.Group_graph in
  let module P = Adversary.Population in
  let leaders = G.leaders g in
  let blue = ref [] in
  for r = G.n_groups g - 1 downto 0 do
    if not (G.red_at g r) then blue := leaders.(r) :: !blue
  done;
  let pop = G.population g in
  let bad = P.bad_ring pop in
  G.blue_leaders g = Array.of_list !blue
  && P.good_ids pop
     = Array.of_list
         (Array.fold_right
            (fun p acc -> if Ring.mem p bad then acc else p :: acc)
            (P.all_ids pop) [])

let prop_indices_match_fresh_scan =
  QCheck.Test.make ~name:"blue_leaders and good_ids equal a fresh scan" ~count:6
    QCheck.(pair small_int (int_range 64 128))
    (fun (seed, n) ->
      let module G = Tinygroups.Group_graph in
      let r = Prng.Rng.create seed in
      let _, g = Experiments.Common.build_tiny (Prng.Rng.split r) ~n ~beta:0.2 () in
      let _, g' = Experiments.Common.build_tiny (Prng.Rng.split r) ~n ~beta:0.2 () in
      let leaders = G.leaders g in
      let pick k = List.init k (fun _ -> leaders.(Prng.Rng.int r n)) in
      let marked =
        G.assemble ~params:(G.params g) ~population:(G.population g) ~overlay:(G.overlay g)
          ~groups:(G.groups g) ~confused:(pick 8) ~suspect:(pick 8) ()
      in
      let departed, _ =
        Tinygroups.Dynamic.depart_many g ~ids:(List.sort_uniq Point.compare (pick 6))
      in
      let joined, _ =
        Tinygroups.Dynamic.join_many (Prng.Rng.split r) (Sim.Metrics.create ()) g
          ~old_pair:(Tinygroups.Membership.make_old_pair ~failure:`Majority g (Some g'))
          ~member_oracle:oracle
          ~ids:(List.init 6 (fun _ -> (Point.random r, Prng.Rng.bernoulli r 0.3)))
      in
      let advanced conditions =
        let e =
          Tinygroups.Epoch.init ~conditions (Prng.Rng.create seed)
            (Tinygroups.Epoch.default_config ~n)
        in
        Tinygroups.Epoch.advance e;
        Tinygroups.Epoch.primary e :: Option.to_list (Tinygroups.Epoch.secondary e)
      in
      let masked =
        Sim.Conditions.make
          ~faults:(Faults.Plan.with_seed (Faults.Plan.uniform ~drop:0.15 ()) 42L)
          ~reliability:(Reliability.Policy.make ~seed:42L ~max_retries:8 ())
          ()
      in
      List.for_all indices_fresh
        ([ g; marked; departed; joined ] @ advanced Sim.Conditions.none @ advanced masked))

let prop_determinism =
  QCheck.Test.make ~name:"construction is deterministic in the population" ~count:10
    QCheck.small_int (fun seed ->
      let r1 = Prng.Rng.create seed and r2 = Prng.Rng.create seed in
      let mk r =
        let pop =
          Adversary.Population.generate r ~n:128 ~beta:0.1
            ~strategy:Adversary.Placement.Uniform
        in
        let overlay = Overlay.Chord.make (Adversary.Population.ring pop) in
        Tinygroups.Group_graph.build_direct ~params ~population:pop ~overlay
          ~member_oracle:oracle ()
      in
      let g1 = mk r1 and g2 = mk r2 in
      let c1 = Tinygroups.Group_graph.census g1 in
      let c2 = Tinygroups.Group_graph.census g2 in
      c1 = c2)

let () =
  Alcotest.run "group_graph"
    [
      ( "construction",
        [
          Alcotest.test_case "one group per ID (S1)" `Quick test_one_group_per_id;
          Alcotest.test_case "members from hash points" `Quick test_group_membership_from_oracle;
          Alcotest.test_case "sizes ~ d2 lnln n" `Quick test_group_sizes_near_d2_lnln;
          Alcotest.test_case "form_group allocation" `Quick test_form_group_allocation;
          Alcotest.test_case "membership bookkeeping" `Quick test_groups_per_id_positive;
          Alcotest.test_case "parallel build identical" `Quick
            test_parallel_build_identical;
        ] );
      ( "colors",
        [
          Alcotest.test_case "census partition" `Quick test_census_consistency;
          Alcotest.test_case "beta 0 is all good" `Quick test_no_adversary_no_hijack;
          Alcotest.test_case "hijack rate vs Chernoff" `Slow test_hijack_rate_tracks_chernoff;
          Alcotest.test_case "clustered adversary captures keys" `Slow
            test_clustered_adversary_captures_local_keys;
          Alcotest.test_case "withholding adversary (Lemma 5)" `Slow
            test_lemma5_withholding_adversary;
          Alcotest.test_case "blue leader cache" `Quick test_blue_leaders_cache;
          Alcotest.test_case "random blue leader" `Quick test_random_blue_leader;
        ] );
      ( "assemble",
        [
          Alcotest.test_case "confusion makes red (S2)" `Quick test_confusion_makes_red;
          Alcotest.test_case "confused/suspect marks fix colours" `Quick
            test_assemble_marks_fix_colours;
          Alcotest.test_case "validations" `Quick test_assemble_validations;
          Alcotest.test_case "overlay ring must match" `Quick test_overlay_ring_must_match;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_determinism;
          QCheck_alcotest.to_alcotest prop_iter_order_is_ring_order;
          QCheck_alcotest.to_alcotest prop_point_queries_match_ranks;
          QCheck_alcotest.to_alcotest prop_indices_match_fresh_scan;
        ] );
    ]
