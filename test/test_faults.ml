(* The fault-injection layer: schedule determinism (same seed, same
   faults, at any --jobs), the zero-rate anchor (a plan whose rates
   are all zero is byte-identical in effect to no plan), and the
   saturation laws (drop rate 1 / a total partition deliver
   nothing). Every qcheck arbitrary prints the plan seed so a failing
   schedule can be replayed verbatim. *)

open Idspace

let pt i = Point.of_u62 (Int64.of_int i)

let latency = Sim.Latency.lognormal_like ~median:40 ~sigma:0.6

(* A small live world shared by the protocol-level cases. *)
let build_world seed =
  let rng = Prng.Rng.create seed in
  let _, g = Experiments.Common.build_tiny rng ~n:128 ~beta:0.05 () in
  (rng, g)

(* --- Plan algebra ------------------------------------------------ *)

let test_plan_validation () =
  Alcotest.check_raises "drop > 1"
    (Invalid_argument "Faults.Plan: drop must be in [0, 1]") (fun () ->
      ignore (Faults.Plan.uniform ~drop:1.5 ()));
  Alcotest.check_raises "negative duplicate"
    (Invalid_argument "Faults.Plan: duplicate must be in [0, 1]") (fun () ->
      ignore (Faults.Plan.uniform ~duplicate:(-0.1) ()));
  Alcotest.check_raises "inverted delay range"
    (Invalid_argument "Faults.Plan: delay_ms needs 0 <= lo <= hi") (fun () ->
      ignore (Faults.Plan.uniform ~delay:0.5 ~delay_ms:(100, 10) ()));
  Alcotest.check_raises "empty partition side"
    (Invalid_argument "Faults.Plan.partition: side_a must be non-empty") (fun () ->
      ignore (Faults.Plan.partition ~side_a:[] ~from_time:0 ()))

let test_plan_compose () =
  let a = Faults.Plan.with_seed (Faults.Plan.uniform ~drop:0.5 ()) 7L in
  let b = Faults.Plan.with_seed (Faults.Plan.uniform ~drop:0.5 ()) 9L in
  let c = Faults.Plan.(a ++ b) in
  Alcotest.(check int64) "left seed wins" 7L c.Faults.Plan.seed;
  Alcotest.(check int) "rules union" 2 (List.length c.Faults.Plan.rules);
  Alcotest.(check (float 1e-9)) "wildcard drop composes" 0.75
    (Faults.Plan.wildcard_drop c);
  Alcotest.(check bool) "none is zero" true Faults.Plan.(is_zero none);
  Alcotest.(check bool) "zero-rate uniform is zero" true
    (Faults.Plan.is_zero (Faults.Plan.uniform ()));
  Alcotest.(check bool) "drop 0.5 is not zero" false (Faults.Plan.is_zero a);
  Alcotest.(check bool) "cut is not zero" false
    (Faults.Plan.is_zero (Faults.Plan.partition ~side_a:[ pt 1 ] ~from_time:0 ()))

(* --- Pure liveness / partition queries --------------------------- *)

let test_crash_windows () =
  let plan =
    Faults.Plan.(
      with_seed (crash_of ~id:(pt 1) ~down_from:10 ~recover_at:20 ()) 3L)
  in
  let inj = Faults.Injector.create plan in
  Alcotest.(check bool) "before window" false (Faults.Injector.crashed inj ~now:9 (pt 1));
  Alcotest.(check bool) "inside window" true (Faults.Injector.crashed inj ~now:10 (pt 1));
  Alcotest.(check bool) "recover boundary" false
    (Faults.Injector.crashed inj ~now:20 (pt 1));
  Alcotest.(check bool) "other id" false (Faults.Injector.crashed inj ~now:15 (pt 2))

let test_partition_windows () =
  let plan =
    Faults.Plan.(
      with_seed (partition ~side_a:[ pt 1; pt 2 ] ~from_time:5 ~heal_time:15 ()) 3L)
  in
  let inj = Faults.Injector.create plan in
  let sev ~now ~src ~dst = Faults.Injector.severed inj ~now ~src ~dst in
  Alcotest.(check bool) "crossing while active" true
    (sev ~now:5 ~src:(Some (pt 1)) ~dst:(pt 9));
  Alcotest.(check bool) "same side stays connected" false
    (sev ~now:5 ~src:(Some (pt 1)) ~dst:(pt 2));
  Alcotest.(check bool) "client counts as the far side" true
    (sev ~now:5 ~src:None ~dst:(pt 1));
  Alcotest.(check bool) "before cut" false (sev ~now:4 ~src:(Some (pt 1)) ~dst:(pt 9));
  Alcotest.(check bool) "after heal" false (sev ~now:15 ~src:(Some (pt 1)) ~dst:(pt 9))

(* Regression: with an explicit two-sided cut, an off-ring sender
   (src = None, e.g. a client) used to count as neither side, so its
   traffic into side A sailed through the partition. An unknown
   sender must always sit on the far side of side A. *)
let test_two_sided_cut_blocks_unknown_sender () =
  let plan =
    Faults.Plan.(
      with_seed
        (partition ~side_a:[ pt 1 ] ~side_b:[ pt 2 ] ~from_time:0 ~heal_time:10 ())
        3L)
  in
  let inj = Faults.Injector.create plan in
  let sev ~src ~dst = Faults.Injector.severed inj ~now:5 ~src ~dst in
  Alcotest.(check bool) "named crossing severed" true
    (sev ~src:(Some (pt 2)) ~dst:(pt 1));
  Alcotest.(check bool) "client into side A severed" true (sev ~src:None ~dst:(pt 1));
  Alcotest.(check bool) "client into side B connected" false
    (sev ~src:None ~dst:(pt 2));
  Alcotest.(check bool) "bystander traffic connected" false
    (sev ~src:(Some (pt 3)) ~dst:(pt 4))

let test_observe_heals_counts_once () =
  let plan =
    Faults.Plan.(
      with_seed
        (partition ~side_a:[ pt 1 ] ~from_time:0 ~heal_time:10 ()
        ++ crash_of ~id:(pt 2) ~down_from:0 ~recover_at:5 ())
        3L)
  in
  let inj = Faults.Injector.create plan in
  let healed () =
    Sim.Metrics.found (Sim.Metrics.snapshot (Faults.Injector.metrics inj))
      Sim.Metrics.fault_healed
  in
  Faults.Injector.observe_heals inj ~now:0;
  Alcotest.(check int) "nothing healed yet" 0 (healed ());
  Faults.Injector.observe_heals inj ~now:7;
  Alcotest.(check int) "crash recovered" 1 (healed ());
  Faults.Injector.observe_heals inj ~now:50;
  Faults.Injector.observe_heals inj ~now:60;
  Alcotest.(check int) "each heal counted once" 2 (healed ())

(* The parallel epoch transition gives every slice a fork of the
   transition's injector. Window observations made inside a fork are
   slice-local until [merge_seen] ORs them back into the parent —
   after which the parent's [observe_heals] may count the heal, once,
   exactly as if the observation had been made on the parent
   directly. The OR is idempotent, so merging many forks that all saw
   the same window still heals it once — the slicing cannot change
   the heal count. *)
let test_fork_merge_seen_heal_counting () =
  let plan =
    Faults.Plan.(
      with_seed
        (crash_of ~id:(pt 2) ~down_from:0 ~recover_at:5 ())
        3L)
  in
  let inj = Faults.Injector.create plan in
  let healed () =
    Sim.Metrics.found (Sim.Metrics.snapshot (Faults.Injector.metrics inj))
      Sim.Metrics.fault_healed
  in
  let f1 = Faults.Injector.fork inj ~metrics:(Sim.Metrics.create ()) in
  let f2 = Faults.Injector.fork inj ~metrics:(Sim.Metrics.create ()) in
  (* Both slices witness the active crash window. *)
  Alcotest.(check bool) "fork sees the crash" true
    (Faults.Injector.crashed f1 ~now:2 (pt 2));
  Alcotest.(check bool) "other fork sees it too" true
    (Faults.Injector.crashed f2 ~now:2 (pt 2));
  (* Unmerged, the parent observed nothing: no heal to count. *)
  Faults.Injector.observe_heals inj ~now:7;
  Alcotest.(check int) "unmerged observation heals nothing" 0 (healed ());
  Faults.Injector.merge_seen ~into:inj f1;
  Faults.Injector.merge_seen ~into:inj f2;
  Faults.Injector.observe_heals inj ~now:7;
  Alcotest.(check int) "merged observation heals once" 1 (healed ());
  Faults.Injector.observe_heals inj ~now:8;
  Alcotest.(check int) "still once" 1 (healed ())

(* Regression: heals used to be counted for faults whose active
   window nothing ever entered — a clock that jumps straight past the
   window "healed" an outage no query witnessed. Only a fault
   observed active may heal. *)
let test_unobserved_fault_never_heals () =
  let plan =
    Faults.Plan.(
      with_seed
        (partition ~side_a:[ pt 1 ] ~from_time:0 ~heal_time:10 ()
        ++ crash_of ~id:(pt 2) ~down_from:0 ~recover_at:5 ())
        3L)
  in
  let healed inj =
    Sim.Metrics.found (Sim.Metrics.snapshot (Faults.Injector.metrics inj))
      Sim.Metrics.fault_healed
  in
  (* First observation is already past both windows: nothing was ever
     seen active, so nothing heals. *)
  let inj = Faults.Injector.create plan in
  Faults.Injector.observe_heals inj ~now:50;
  Alcotest.(check int) "unobserved windows heal nothing" 0 (healed inj);
  (* A liveness query inside the window is an observation, and
     licenses the later heal. *)
  let inj = Faults.Injector.create plan in
  ignore (Faults.Injector.severed inj ~now:5 ~src:None ~dst:(pt 1));
  ignore (Faults.Injector.crashed inj ~now:2 (pt 2));
  Faults.Injector.observe_heals inj ~now:50;
  Alcotest.(check int) "observed windows heal once" 2 (healed inj)

(* --- Schedule determinism ---------------------------------------- *)

let rates_arb =
  let open QCheck in
  let gen =
    Gen.map3
      (fun d du (de, re) -> (d, du, de, re))
      (Gen.float_bound_inclusive 1.0)
      (Gen.float_bound_inclusive 1.0)
      (Gen.pair (Gen.float_bound_inclusive 1.0) (Gen.float_bound_inclusive 1.0))
  in
  let print (d, du, de, re) =
    Printf.sprintf "drop=%g duplicate=%g delay=%g reorder=%g" d du de re
  in
  make ~print gen

let plan_of_rates ?(seed = 11L) (d, du, de, re) =
  Faults.Plan.with_seed
    (Faults.Plan.uniform ~drop:d ~duplicate:du ~delay:de ~reorder:re ())
    seed

let decision_sig = function
  | Faults.Injector.Drop -> "D"
  | Faults.Injector.Deliver { extra_delay; copies } ->
      Printf.sprintf "d%d+%d" copies extra_delay

(* The whole verdict sequence of a plan is a function of the plan
   alone: two injectors over the same plan agree verdict by verdict,
   even when unrelated simulation draws happen in between (the
   injector never reads the simulation's streams). *)
let prop_schedule_deterministic =
  QCheck.Test.make ~count:50 ~name:"same plan, same schedule (seed printed above)"
    rates_arb (fun rates ->
      let sim_rng = Prng.Rng.create 99 in
      let schedule ~noisy =
        let inj = Faults.Injector.create (plan_of_rates rates) in
        List.init 64 (fun i ->
            if noisy then ignore (Prng.Rng.int sim_rng 1000);
            decision_sig
              (Faults.Injector.decide inj ~now:i ~src:(Some (pt (i mod 7)))
                 ~dst:(pt (i mod 5))))
      in
      schedule ~noisy:false = schedule ~noisy:true)

(* Jobs-invariance at the experiment layer: the same faulty searches
   run through the fan-out at jobs=1 and jobs=2 give the same
   outcomes per config. *)
let test_faulty_fanout_jobs_invariant () =
  let _, g = build_world 5 in
  let leaders = Tinygroups.Group_graph.leaders g in
  let configs = [ (0, 21L); (1, 22L); (2, 23L) ] in
  let run jobs =
    Experiments.Common.map_configs (Prng.Rng.create 3) ~jobs configs
      (fun (i, seed) stream ->
        let plan = Faults.Plan.with_seed (Faults.Plan.uniform ~drop:0.2 ()) seed in
        let o =
          Protocol.Secure_search.run_search (Prng.Rng.split stream) g ~latency
            ~behaviour:Protocol.Secure_search.Colluding
            ~src:leaders.(i mod Array.length leaders)
            ~key:(Point.random stream)
            ~conditions:(Sim.Conditions.make ~faults:plan ()) ()
        in
        (o.Protocol.Secure_search.result, o.Protocol.Secure_search.messages))
  in
  Alcotest.(check bool) "jobs=2 = jobs=1" true (run 1 = run 2)

let test_replay_from_seed () =
  let outcome seed =
    let _, g = build_world 5 in
    let leaders = Tinygroups.Group_graph.leaders g in
    let plan = Faults.Plan.with_seed (Faults.Plan.uniform ~drop:0.3 ()) seed in
    let o =
      Protocol.Secure_search.run_search (Prng.Rng.create 17) g ~latency
        ~behaviour:Protocol.Secure_search.Silent ~src:leaders.(0) ~key:(pt 12345)
        ~conditions:(Sim.Conditions.make ~faults:plan ()) ()
    in
    (o.Protocol.Secure_search.result, o.Protocol.Secure_search.messages)
  in
  Alcotest.(check bool) "seed 42 replays" true (outcome 42L = outcome 42L)

(* --- The zero-rate anchor ---------------------------------------- *)

let seed_arb =
  QCheck.(map ~rev:Int64.to_int Int64.of_int (int_range 1 1_000_000))

(* A zero-rate plan under ANY seed is byte-identical to no plan at
   all, at every layer that takes [?conditions]. *)
let prop_zero_plan_search =
  QCheck.Test.make ~count:10 ~name:"zero-rate plan = no plan (run_search)" seed_arb
    (fun seed ->
      let outcome faults =
        let _, g = build_world 7 in
        let leaders = Tinygroups.Group_graph.leaders g in
        let o =
          Protocol.Secure_search.run_search (Prng.Rng.create 23) g ~latency
            ~behaviour:Protocol.Secure_search.Colluding ~src:leaders.(1)
            ~key:(pt 999) ~conditions:(Sim.Conditions.make ?faults ()) ()
        in
        (o.Protocol.Secure_search.result, o.Protocol.Secure_search.latency_ms,
         o.Protocol.Secure_search.messages)
      in
      outcome None
      = outcome (Some (Faults.Plan.with_seed (Faults.Plan.uniform ()) seed)))

let test_zero_plan_epochs () =
  let chain faults =
    Experiments.Exp_dynamic.run_epochs
      ~conditions:(Sim.Conditions.make ?faults ()) (Prng.Rng.create 11)
      ~mode:Tinygroups.Epoch.Paired ~n:128 ~beta:0.05 ~epochs:2 ~searches:50
  in
  Alcotest.(check bool) "epoch chain identical" true
    (chain None = chain (Some (Faults.Plan.with_seed (Faults.Plan.uniform ()) 77L)))

let test_zero_plan_e19_render () =
  let render faults =
    Experiments.Table.render
      (Experiments.Exp_protocol.run_e19 ~jobs:1
         ~conditions:(Sim.Conditions.make ?faults ()) (Prng.Rng.create 1)
         Experiments.Scale.Quick)
  in
  Alcotest.(check string) "E19 render identical" (render None)
    (render (Some (Faults.Plan.with_seed (Faults.Plan.uniform ()) 1337L)))

(* The acceptance check from the issue: E21's table is identical for
   --jobs 1 and --jobs 4 under the same seed. *)
let test_e21_jobs_invariant () =
  let render jobs =
    Experiments.Table.render
      (Experiments.Exp_faults.run_e21 ~jobs (Prng.Rng.create 1) Experiments.Scale.Quick)
  in
  Alcotest.(check string) "E21: jobs=4 = jobs=1" (render 1) (render 4)

(* --- Saturation: nothing gets through ---------------------------- *)

let deliveries plan ~with_src =
  let net =
    Protocol.Network.create
      ~conditions:(Sim.Conditions.make ?faults:plan ())
      (Prng.Rng.create 2) ~latency
  in
  let ids = List.init 4 (fun i -> pt (i + 1)) in
  List.iter (fun id -> Protocol.Network.register net id (fun _ ~now:_ _ -> ())) ids;
  List.iter
    (fun dst ->
      List.iter
        (fun src ->
          if not (Point.equal src dst) then
            Protocol.Network.send
              ?src:(if with_src then Some src else None)
              net ~to_:dst
              (Protocol.Message.Search_reply
                 { qid = 0; responsible = pt 0; responder_count = 1 }))
        ids)
    ids;
  Protocol.Network.run net;
  (Protocol.Network.messages_sent net, Protocol.Network.messages_delivered net)

let test_drop_one_delivers_nothing () =
  let plan = Some (Faults.Plan.with_seed (Faults.Plan.uniform ~drop:1.0 ()) 5L) in
  let sent, delivered = deliveries plan ~with_src:true in
  Alcotest.(check int) "all sends counted" 12 sent;
  Alcotest.(check int) "zero deliveries" 0 delivered;
  (* The control: without a plan everything arrives. *)
  let _, delivered0 = deliveries None ~with_src:true in
  Alcotest.(check int) "no plan delivers all" 12 delivered0

let test_total_partition_delivers_nothing () =
  (* Every registered ID on side A, every sender a client (None =
     the implicit far side): each message crosses the cut. *)
  let plan =
    Some
      (Faults.Plan.with_seed
         (Faults.Plan.partition
            ~side_a:(List.init 4 (fun i -> pt (i + 1)))
            ~from_time:0 ())
         5L)
  in
  let _, delivered = deliveries plan ~with_src:false in
  Alcotest.(check int) "zero deliveries across the cut" 0 delivered

let test_drop_one_search_times_out () =
  let _, g = build_world 7 in
  let leaders = Tinygroups.Group_graph.leaders g in
  let plan = Faults.Plan.with_seed (Faults.Plan.uniform ~drop:1.0 ()) 5L in
  let o =
    Protocol.Secure_search.run_search (Prng.Rng.create 23) g ~latency
      ~behaviour:Protocol.Secure_search.Silent ~src:leaders.(0) ~key:(pt 4242)
      ~deadline:2_000 ~conditions:(Sim.Conditions.make ~faults:plan ()) ()
  in
  Alcotest.(check bool) "timeout" true (o.Protocol.Secure_search.result = `Timeout)

let () =
  Alcotest.run "faults"
    [
      ( "plan",
        [
          Alcotest.test_case "rate validation" `Quick test_plan_validation;
          Alcotest.test_case "compose and wildcard drop" `Quick test_plan_compose;
        ] );
      ( "injector",
        [
          Alcotest.test_case "crash windows" `Quick test_crash_windows;
          Alcotest.test_case "partition windows" `Quick test_partition_windows;
          Alcotest.test_case "two-sided cut vs unknown sender" `Quick
            test_two_sided_cut_blocks_unknown_sender;
          Alcotest.test_case "heals counted once" `Quick test_observe_heals_counts_once;
          Alcotest.test_case "fork/merge_seen heal counting" `Quick
            test_fork_merge_seen_heal_counting;
          Alcotest.test_case "unobserved fault never heals" `Quick
            test_unobserved_fault_never_heals;
        ] );
      ( "determinism",
        [
          QCheck_alcotest.to_alcotest prop_schedule_deterministic;
          Alcotest.test_case "fan-out jobs invariance" `Quick
            test_faulty_fanout_jobs_invariant;
          Alcotest.test_case "replay from seed" `Quick test_replay_from_seed;
          Alcotest.test_case "E21 jobs invariance" `Slow test_e21_jobs_invariant;
        ] );
      ( "zero-rate anchor",
        [
          QCheck_alcotest.to_alcotest prop_zero_plan_search;
          Alcotest.test_case "epoch chain" `Quick test_zero_plan_epochs;
          Alcotest.test_case "E19 render" `Slow test_zero_plan_e19_render;
        ] );
      ( "saturation",
        [
          Alcotest.test_case "drop 1.0 delivers nothing" `Quick
            test_drop_one_delivers_nothing;
          Alcotest.test_case "total partition delivers nothing" `Quick
            test_total_partition_delivers_nothing;
          Alcotest.test_case "drop 1.0 search times out" `Quick
            test_drop_one_search_times_out;
        ] );
    ]
