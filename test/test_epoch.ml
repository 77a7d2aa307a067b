(* The two-graph epoch protocol: initialisation, advancing under full
   turnover, robustness persistence (the paper's headline dynamic
   claim), and the single-graph ablation's collapse. *)

let rng () = Prng.Rng.create 1123

let test_init_builds_pair () =
  let e = Tinygroups.Epoch.init (rng ()) (Tinygroups.Epoch.default_config ~n:256) in
  Alcotest.(check int) "epoch 0" 0 (Tinygroups.Epoch.epoch e);
  Alcotest.(check bool) "has secondary" true (Tinygroups.Epoch.secondary e <> None);
  Alcotest.(check int) "n groups" 256
    (Tinygroups.Group_graph.n_groups (Tinygroups.Epoch.primary e));
  Alcotest.(check int) "history has epoch 0" 1 (List.length (Tinygroups.Epoch.history e))

let test_init_single_mode () =
  let cfg =
    { (Tinygroups.Epoch.default_config ~n:128) with Tinygroups.Epoch.mode = Tinygroups.Epoch.Single }
  in
  let e = Tinygroups.Epoch.init (rng ()) cfg in
  Alcotest.(check bool) "no secondary" true (Tinygroups.Epoch.secondary e = None)

let test_advance_turns_over_population () =
  let e = Tinygroups.Epoch.init (rng ()) (Tinygroups.Epoch.default_config ~n:256) in
  let before = Tinygroups.Group_graph.leaders (Tinygroups.Epoch.primary e) in
  Tinygroups.Epoch.advance e;
  let after = Tinygroups.Group_graph.leaders (Tinygroups.Epoch.primary e) in
  Alcotest.(check int) "epoch advanced" 1 (Tinygroups.Epoch.epoch e);
  Alcotest.(check int) "size preserved" (Array.length before) (Array.length after);
  (* Full turnover: the ID sets are disjoint w.h.p. *)
  let before_set =
    List.fold_left
      (fun acc p -> Idspace.Ring.add p acc)
      Idspace.Ring.empty (Array.to_list before)
  in
  let overlap =
    Array.fold_left (fun acc p -> if Idspace.Ring.mem p before_set then acc + 1 else acc) 0 after
  in
  Alcotest.(check int) "disjoint ID sets" 0 overlap

let test_members_come_from_old_population () =
  let e = Tinygroups.Epoch.init (rng ()) (Tinygroups.Epoch.default_config ~n:256) in
  let old_ring =
    Adversary.Population.ring
      (Tinygroups.Group_graph.population (Tinygroups.Epoch.primary e))
  in
  Tinygroups.Epoch.advance e;
  let g = Tinygroups.Epoch.primary e in
  let checked = ref 0 in
  Array.iter
    (fun w ->
      let grp = Tinygroups.Group_graph.group_of g w in
      Array.iter
        (fun m ->
          incr checked;
          Alcotest.(check bool) "member is an old-epoch ID" true
            (Idspace.Ring.mem m old_ring))
        grp.Tinygroups.Group.members)
    (Array.sub (Tinygroups.Group_graph.leaders g) 0 20);
  Alcotest.(check bool) "checked some members" true (!checked > 50)

let test_paired_robustness_persists () =
  let e = Tinygroups.Epoch.init (rng ()) (Tinygroups.Epoch.default_config ~n:1024) in
  for _ = 1 to 4 do
    Tinygroups.Epoch.advance e
  done;
  let c = Tinygroups.Group_graph.census (Tinygroups.Epoch.primary e) in
  Alcotest.(check bool)
    (Printf.sprintf "hijacked %d + confused %d stay tiny" c.hijacked_ c.confused_)
    true
    (c.hijacked_ + c.confused_ < 1024 / 50)

let test_single_graph_collapses () =
  (* The ablation the paper's two-graph design exists to prevent:
     errors compound and the graph eventually collapses. *)
  let cfg =
    {
      (Tinygroups.Epoch.default_config ~n:512) with
      Tinygroups.Epoch.mode = Tinygroups.Epoch.Single;
      (* A harsher adversary accelerates the collapse so the test is
         quick. *)
      params = { Tinygroups.Params.default with Tinygroups.Params.beta = 0.12 };
    }
  in
  let e = Tinygroups.Epoch.init (rng ()) cfg in
  let collapsed = ref false in
  (* Under the compounding recursion the error must blow past 20% of
     groups within a handful of epochs. *)
  for _ = 1 to 8 do
    if not !collapsed then begin
      Tinygroups.Epoch.advance e;
      let c = Tinygroups.Group_graph.census (Tinygroups.Epoch.primary e) in
      if c.hijacked_ + c.confused_ > 512 / 5 then collapsed := true
    end
  done;
  Alcotest.(check bool) "single-graph rebuild degrades" true !collapsed

let test_paired_beats_single_at_same_beta () =
  (* At a beta past both modes' stability thresholds (for this n),
     the squared failure probability still slows the paired mode's
     degradation markedly: compare the error mass while the collapse
     is in progress. *)
  let mk mode =
    let cfg =
      {
        (Tinygroups.Epoch.default_config ~n:512) with
        Tinygroups.Epoch.mode = mode;
        params = { Tinygroups.Params.default with Tinygroups.Params.beta = 0.10 };
      }
    in
    let e = Tinygroups.Epoch.init (rng ()) cfg in
    for _ = 1 to 2 do
      Tinygroups.Epoch.advance e
    done;
    let c = Tinygroups.Group_graph.census (Tinygroups.Epoch.primary e) in
    c.hijacked_ + c.confused_
  in
  let paired = mk Tinygroups.Epoch.Paired in
  let single = mk Tinygroups.Epoch.Single in
  Alcotest.(check bool)
    (Printf.sprintf "paired %d < single %d" paired single)
    true (paired < single)

let test_history_accumulates () =
  let e = Tinygroups.Epoch.init (rng ()) (Tinygroups.Epoch.default_config ~n:128) in
  Tinygroups.Epoch.advance e;
  Tinygroups.Epoch.advance e;
  let h = Tinygroups.Epoch.history e in
  Alcotest.(check (list int)) "epochs in order" [ 0; 1; 2 ] (List.map fst h)

(* The representation-independence law behind the Series-backed
   history: whatever [history_] is internally, [Epoch.history] after
   k transitions must equal the censuses an external observer
   collected from [Epoch.primary] at epoch 0 and after each advance,
   in chronological order. This pinned the O(k^2)-append fix as
   behaviour-preserving. *)
let prop_history_is_external_census_fold =
  QCheck.Test.make ~name:"history = externally collected censuses" ~count:10
    QCheck.(pair (int_range 64 160) (int_range 0 4))
    (fun (n, k) ->
      let e = Tinygroups.Epoch.init (rng ()) (Tinygroups.Epoch.default_config ~n) in
      let observed = ref [ (0, Tinygroups.Group_graph.census (Tinygroups.Epoch.primary e)) ] in
      for _ = 1 to k do
        Tinygroups.Epoch.advance e;
        observed :=
          ( Tinygroups.Epoch.epoch e,
            Tinygroups.Group_graph.census (Tinygroups.Epoch.primary e) )
          :: !observed
      done;
      Tinygroups.Epoch.history e = List.rev !observed)

(* The parallel-transition contract (DESIGN.md §11): [advance] is
   byte-identical at every [build_jobs] — graphs, census history and
   metrics — because all randomness consumed during a transition is
   re-keyed per (epoch, phase, leader rank) and slice-local
   fault/reliability state merges back slicing-invariantly. The law
   is checked under benign conditions, a drop plan masked by a deep
   retry budget with circuit breaking (arming the injector and
   tracker substreams), a heavy drop plan with one retry that
   exhausts searches (arming the suspect-trace path of
   [Epoch.build_next], whose slices must concatenate in rank order),
   and a partition cutting real epoch-0 leaders (arming the cut
   verdict path). *)
let epoch_state_equal a b =
  Tinygroups.Group_graph.equal (Tinygroups.Epoch.primary a) (Tinygroups.Epoch.primary b)
  && (match (Tinygroups.Epoch.secondary a, Tinygroups.Epoch.secondary b) with
     | None, None -> true
     | Some ga, Some gb -> Tinygroups.Group_graph.equal ga gb
     | _ -> false)
  && Tinygroups.Epoch.history a = Tinygroups.Epoch.history b
  && Sim.Metrics.snapshot (Tinygroups.Epoch.metrics a)
     = Sim.Metrics.snapshot (Tinygroups.Epoch.metrics b)

(* Suspect groups of the primary graph, read from its census. *)
let suspect_groups e = (Tinygroups.Group_graph.census (Tinygroups.Epoch.primary e)).suspect_

let conditions_for kind ~seed ~n =
  match kind with
  | `Benign -> Sim.Conditions.none
  | `Masked ->
      Sim.Conditions.make
        ~faults:(Faults.Plan.with_seed (Faults.Plan.uniform ~drop:0.15 ()) 42L)
        ~reliability:
          (Reliability.Policy.make ~seed:42L ~max_retries:8 ~circuit_threshold:4 ())
        ()
  | `Lossy ->
      Sim.Conditions.make
        ~faults:(Faults.Plan.with_seed (Faults.Plan.uniform ~drop:0.5 ()) 42L)
        ~reliability:(Reliability.Policy.make ~seed:42L ~max_retries:1 ())
        ()
  | `Partition ->
      (* Cut a dozen of the actual epoch-0 leaders off: leaders are a
         pure function of (seed, n) — conditions and build_jobs do
         not perturb population generation — so the probe init sees
         the same ring the run under test will. *)
      let probe =
        Tinygroups.Epoch.init (Prng.Rng.create seed)
          (Tinygroups.Epoch.default_config ~n)
      in
      let leaders = Tinygroups.Group_graph.leaders (Tinygroups.Epoch.primary probe) in
      let side_a = Array.to_list (Array.sub leaders 0 (min 12 (Array.length leaders))) in
      Sim.Conditions.make
        ~faults:(Faults.Plan.with_seed (Faults.Plan.partition ~side_a ~from_time:0 ()) 42L)
        ()

let prop_advance_jobs_invariant =
  QCheck.Test.make ~name:"advance ~jobs:1 == advance ~jobs:4 (state + metrics)"
    ~count:9
    QCheck.(
      triple
        (oneofl [ 1; 7; 1337 ])
        (oneofl [ `Benign; `Masked; `Lossy; `Partition ])
        (int_range 96 160))
    (fun (seed, kind, n) ->
      let run jobs =
        let cfg =
          { (Tinygroups.Epoch.default_config ~n) with Tinygroups.Epoch.build_jobs = jobs }
        in
        let e =
          Tinygroups.Epoch.init
            ~conditions:(conditions_for kind ~seed ~n)
            (Prng.Rng.create seed) cfg
        in
        (* Two transitions: both phase salts, and the second runs with
           tracker circuit state carried over from the first's merge. *)
        Tinygroups.Epoch.advance e;
        Tinygroups.Epoch.advance e;
        e
      in
      let one = run 1 in
      epoch_state_equal one (run 4)
      && (kind <> `Lossy || suspect_groups one > 0))

let test_lossy_transition_suspects () =
  (* The lossy kind of the law above, pinned: it must actually merge
     suspect traces, or the law never reaches that branch. *)
  let run jobs =
    let cfg =
      { (Tinygroups.Epoch.default_config ~n:128) with Tinygroups.Epoch.build_jobs = jobs }
    in
    let e =
      Tinygroups.Epoch.init
        ~conditions:(conditions_for `Lossy ~seed:7 ~n:128)
        (Prng.Rng.create 7) cfg
    in
    Tinygroups.Epoch.advance e;
    Tinygroups.Epoch.advance e;
    e
  in
  let one = run 1 and four = run 4 in
  Alcotest.(check bool) "jobs 1 == jobs 4" true (epoch_state_equal one four);
  Alcotest.(check bool)
    (Printf.sprintf "%d suspect groups" (suspect_groups one))
    true
    (suspect_groups one > 0)

let test_lone_leader_metric_counts () =
  (* Crash the entire old population for the transition window: every
     solicited member sits in an active crash window, so every leader
     exhausts its draws and falls back to the lone-leader group —
     observable as [group.lone_leader], once per group across both
     new graphs (E25 reports the same counter for join batches).
     Drops alone cannot trigger the fallback: a fully hijacked lookup
     still plants a member. *)
  let probe =
    Tinygroups.Epoch.init (rng ()) (Tinygroups.Epoch.default_config ~n:64)
  in
  let ring =
    Adversary.Population.ring
      (Tinygroups.Group_graph.population (Tinygroups.Epoch.primary probe))
  in
  let plan =
    Idspace.Ring.fold
      (fun id acc ->
        Faults.Plan.(acc ++ crash_of ~id ~down_from:0 ~recover_at:99 ()))
      ring Faults.Plan.none
  in
  let conds = Sim.Conditions.make ~faults:(Faults.Plan.with_seed plan 42L) () in
  let e =
    Tinygroups.Epoch.init ~conditions:conds (rng ())
      (Tinygroups.Epoch.default_config ~n:64)
  in
  Tinygroups.Epoch.advance e;
  Alcotest.(check int) "every group fell back to its lone leader" 128
    (Sim.Metrics.get (Tinygroups.Epoch.metrics e) Sim.Metrics.group_lone_leader)

let test_metrics_accumulate () =
  let e = Tinygroups.Epoch.init (rng ()) (Tinygroups.Epoch.default_config ~n:128) in
  Alcotest.(check int) "no construction traffic yet" 0
    (Sim.Metrics.get (Tinygroups.Epoch.metrics e) Sim.Metrics.msg_membership);
  Tinygroups.Epoch.advance e;
  Alcotest.(check bool) "construction traffic counted" true
    (Sim.Metrics.get (Tinygroups.Epoch.metrics e) Sim.Metrics.msg_membership > 0)

let test_spam_accounting () =
  (* Lemma 10's state-inflation attack on the pair an epoch leaves
     behind: three bogus requests per bad ID against random good
     victims. At beta 0.05 the victims' verification searches almost
     never fail, so very little spam lands. *)
  let e = Tinygroups.Epoch.init (rng ()) (Tinygroups.Epoch.default_config ~n:128) in
  Tinygroups.Epoch.advance e;
  let r = rng () in
  let pop = Tinygroups.Group_graph.population (Tinygroups.Epoch.primary e) in
  let victims = Adversary.Population.good_ids pop in
  let accepted = ref 0 in
  for _ = 1 to 3 * Adversary.Population.bad_count pop do
    let victim = victims.(Prng.Rng.int r (Array.length victims)) in
    if
      Tinygroups.Membership.spam_accepted (Prng.Rng.split r) (Sim.Metrics.create ())
        (Tinygroups.Epoch.old_pair e) ~victim
    then incr accepted
  done;
  Alcotest.(check bool) (Printf.sprintf "spam accepted %d small" !accepted) true (!accepted < 10)

let test_debruijn_overlay_mode () =
  let cfg =
    { (Tinygroups.Epoch.default_config ~n:256) with Tinygroups.Epoch.overlay = Tinygroups.Epoch.Debruijn }
  in
  let e = Tinygroups.Epoch.init (rng ()) cfg in
  Tinygroups.Epoch.advance e;
  let c = Tinygroups.Group_graph.census (Tinygroups.Epoch.primary e) in
  Alcotest.(check bool) "debruijn epochs work" true (c.hijacked_ + c.confused_ < 256 / 10)

let () =
  Alcotest.run "epoch"
    [
      ( "lifecycle",
        [
          Alcotest.test_case "init builds the pair" `Quick test_init_builds_pair;
          Alcotest.test_case "single mode" `Quick test_init_single_mode;
          Alcotest.test_case "advance turns the population over" `Quick
            test_advance_turns_over_population;
          Alcotest.test_case "members from the old population" `Quick
            test_members_come_from_old_population;
          Alcotest.test_case "history" `Quick test_history_accumulates;
          Alcotest.test_case "metrics" `Quick test_metrics_accumulate;
          QCheck_alcotest.to_alcotest prop_history_is_external_census_fold;
        ] );
      ( "parallel transition",
        [
          QCheck_alcotest.to_alcotest prop_advance_jobs_invariant;
          Alcotest.test_case "lossy transition merges suspects" `Quick
            test_lossy_transition_suspects;
          Alcotest.test_case "lone-leader fallback metric" `Quick
            test_lone_leader_metric_counts;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "paired mode persists" `Slow test_paired_robustness_persists;
          Alcotest.test_case "single graph collapses" `Slow test_single_graph_collapses;
          Alcotest.test_case "paired beats single" `Slow test_paired_beats_single_at_same_beta;
          Alcotest.test_case "spam accounting" `Slow test_spam_accounting;
          Alcotest.test_case "debruijn overlay" `Slow test_debruijn_overlay_mode;
        ] );
    ]
