(* The reliability layer: policy validation and backoff schedule,
   tracker determinism (schedules replay from the policy seed alone),
   the zero-retry anchor (a budget-0 policy is byte-identical to no
   policy at every layer that takes [?reliability]), circuit
   breaking, and the qcheck monotonicity law — delivery never gets
   worse as the retry budget grows. *)

open Idspace

let pt i = Point.of_u62 (Int64.of_int i)

let latency = Sim.Latency.lognormal_like ~median:40 ~sigma:0.6

let build_world seed =
  let rng = Prng.Rng.create seed in
  let _, g = Experiments.Common.build_tiny rng ~n:128 ~beta:0.05 () in
  g

let policy ?(seed = 0L) ?(circuit = 0) budget =
  Reliability.Policy.make ~seed ~max_retries:budget ~base_backoff_ms:10 ~multiplier:2.
    ~max_backoff_ms:500 ~jitter_ms:5 ~circuit_threshold:circuit ()

(* --- Policy ------------------------------------------------------- *)

let test_policy_validation () =
  Alcotest.check_raises "negative budget"
    (Invalid_argument "Reliability.Policy: max_retries must be >= 0") (fun () ->
      ignore (Reliability.Policy.make ~max_retries:(-1) ()));
  Alcotest.check_raises "multiplier below 1"
    (Invalid_argument "Reliability.Policy: multiplier must be >= 1") (fun () ->
      ignore (Reliability.Policy.make ~multiplier:0.5 ()));
  Alcotest.check_raises "cap below base"
    (Invalid_argument "Reliability.Policy: max_backoff_ms must be >= base_backoff_ms")
    (fun () -> ignore (Reliability.Policy.make ~base_backoff_ms:100 ~max_backoff_ms:50 ()));
  Alcotest.check_raises "negative budget via with_budget"
    (Invalid_argument "Reliability.Policy: max_retries must be >= 0") (fun () ->
      ignore (Reliability.Policy.with_budget Reliability.Policy.none (-2)));
  Alcotest.(check bool) "none is zero" true Reliability.Policy.(is_zero none);
  Alcotest.(check bool) "budget 3 is not zero" false
    (Reliability.Policy.is_zero (policy 3))

let test_backoff_schedule () =
  let p = policy 8 in
  Alcotest.(check int) "attempt 0" 10 (Reliability.Policy.backoff_ms p ~attempt:0);
  Alcotest.(check int) "attempt 1" 20 (Reliability.Policy.backoff_ms p ~attempt:1);
  Alcotest.(check int) "attempt 3" 80 (Reliability.Policy.backoff_ms p ~attempt:3);
  Alcotest.(check int) "attempt 9 hits the cap" 500
    (Reliability.Policy.backoff_ms p ~attempt:9)

(* --- Tracker determinism ------------------------------------------ *)

(* The jitter stream is a function of the policy seed alone: two
   trackers over the same policy agree backoff by backoff, even when
   unrelated simulation draws happen in between. *)
let test_tracker_schedule_replays () =
  let sim_rng = Prng.Rng.create 99 in
  let schedule ~noisy =
    let t = Reliability.Tracker.create (policy ~seed:42L 4) in
    List.init 32 (fun i ->
        if noisy then ignore (Prng.Rng.int sim_rng 1000);
        Reliability.Tracker.next_backoff t ~attempt:(i mod 5))
  in
  Alcotest.(check (list int)) "same policy, same schedule" (schedule ~noisy:false)
    (schedule ~noisy:true)

let test_inactive_tracker_is_inert () =
  let t = Reliability.Tracker.create (policy 0) in
  Alcotest.(check bool) "not active" false (Reliability.Tracker.active t);
  Alcotest.(check int) "budget 0" 0 (Reliability.Tracker.budget t);
  Reliability.Tracker.record_success t (pt 1);
  Reliability.Tracker.record_exhausted t (pt 1);
  Alcotest.(check bool) "no circuit" false (Reliability.Tracker.circuit_open t (pt 1));
  let s = Sim.Metrics.snapshot (Reliability.Tracker.metrics t) in
  Alcotest.(check (list (pair string int))) "no counters" [] (Sim.Metrics.to_list s);
  (* with_retries on an inactive tracker is exactly one call. *)
  let calls = ref 0 in
  let out =
    Reliability.Tracker.with_retries t ~dst:(pt 1) (fun () ->
        incr calls;
        false)
  in
  Alcotest.(check bool) "verdict is the attempt's" false out;
  Alcotest.(check int) "one attempt only" 1 !calls

let test_with_retries_counts () =
  let t = Reliability.Tracker.create (policy 3) in
  (* Succeeds on the third attempt: two backoffs charged, then an ack. *)
  let left = ref 2 in
  let out =
    Reliability.Tracker.with_retries t ~dst:(pt 7) (fun () ->
        if !left = 0 then true
        else begin
          decr left;
          false
        end)
  in
  Alcotest.(check bool) "delivered" true out;
  let s = Sim.Metrics.snapshot (Reliability.Tracker.metrics t) in
  Alcotest.(check int) "two retries" 2 (Sim.Metrics.found s Sim.Metrics.retry_attempted);
  Alcotest.(check int) "one ack" 1 (Sim.Metrics.found s Sim.Metrics.retry_acked);
  Alcotest.(check int) "no exhaustion" 0
    (Sim.Metrics.found s Sim.Metrics.retry_exhausted);
  Alcotest.(check bool) "backoff charged" true
    (Sim.Metrics.found s Sim.Metrics.retry_backoff_ms >= 30)

let test_circuit_breaker_opens () =
  let t = Reliability.Tracker.create (policy ~circuit:2 1) in
  let fail () = Reliability.Tracker.with_retries t ~dst:(pt 9) (fun () -> false) in
  ignore (fail ());
  Alcotest.(check bool) "one exhaustion keeps it closed" false
    (Reliability.Tracker.circuit_open t (pt 9));
  ignore (fail ());
  Alcotest.(check bool) "second exhaustion opens it" true
    (Reliability.Tracker.circuit_open t (pt 9));
  Alcotest.(check bool) "other destinations unaffected" false
    (Reliability.Tracker.circuit_open t (pt 10));
  (* An open circuit stops retries: the next budget is a single try. *)
  let calls = ref 0 in
  ignore
    (Reliability.Tracker.with_retries t ~dst:(pt 9) (fun () ->
         incr calls;
         false));
  Alcotest.(check int) "no retries through an open circuit" 1 !calls;
  let s = Sim.Metrics.snapshot (Reliability.Tracker.metrics t) in
  Alcotest.(check int) "one circuit open counted" 1
    (Sim.Metrics.found s Sim.Metrics.retry_circuit_opens)

(* --- The zero-retry anchor ---------------------------------------- *)

let seed_arb = QCheck.(map ~rev:Int64.to_int Int64.of_int (int_range 1 1_000_000))

(* A budget-0 policy under ANY seed is byte-identical to no policy at
   all, at every layer that takes [?conditions] — mirroring the
   fault layer's zero-rate anchor. Layer 1: the message network. *)
let prop_zero_policy_search =
  QCheck.Test.make ~count:10 ~name:"budget-0 policy = no policy (run_search)" seed_arb
    (fun seed ->
      let g = build_world 7 in
      let leaders = Tinygroups.Group_graph.leaders g in
      let plan = Faults.Plan.with_seed (Faults.Plan.uniform ~drop:0.2 ()) 5L in
      let outcome reliability =
        let o =
          Protocol.Secure_search.run_search (Prng.Rng.create 23) g ~latency
            ~behaviour:Protocol.Secure_search.Colluding ~src:leaders.(1) ~key:(pt 999)
            ~conditions:(Sim.Conditions.make ~faults:plan ?reliability ()) ()
        in
        ( o.Protocol.Secure_search.result,
          o.Protocol.Secure_search.latency_ms,
          o.Protocol.Secure_search.messages )
      in
      outcome None = outcome (Some (policy ~seed 0)))

(* Layer 2: the analytic membership/epoch protocol. *)
let test_zero_policy_epochs () =
  let chain reliability =
    Experiments.Exp_dynamic.run_epochs
      ~conditions:
        (Sim.Conditions.make
           ~faults:(Faults.Plan.with_seed (Faults.Plan.uniform ~drop:0.05 ()) 3L)
           ?reliability ())
      (Prng.Rng.create 11) ~mode:Tinygroups.Epoch.Paired ~n:128 ~beta:0.05
      ~epochs:2 ~searches:50
  in
  Alcotest.(check bool) "epoch chain identical" true
    (chain None = chain (Some (policy ~seed:77L 0)))

(* Layer 3: a whole rendered experiment. *)
let test_zero_policy_e19_render () =
  let render reliability =
    Experiments.Table.render
      (Experiments.Exp_protocol.run_e19 ~jobs:1
         ~conditions:(Sim.Conditions.make ?reliability ()) (Prng.Rng.create 1)
         Experiments.Scale.Quick)
  in
  Alcotest.(check string) "E19 render identical" (render None)
    (render (Some (policy ~seed:1337L 0)))

(* --- Budget monotonicity ------------------------------------------ *)

let rate_arb =
  let open QCheck in
  let gen = Gen.pair (Gen.float_bound_inclusive 1.0) (Gen.int_range 1 1_000_000) in
  let print (p, s) = Printf.sprintf "drop=%g plan_seed=%d" p s in
  make ~print gen

(* Delivery is pointwise monotone in the retry budget: over one
   search's own fault stream, a budget-b+1 run consumes the same
   verdict prefix as the budget-b run plus at most one more chance,
   so every search the small budget lands, the large budget lands
   too. (Each search gets its own plan seed — a shared stream would
   desynchronise the two budgets after the first exhaustion.) *)
let prop_delivery_monotone_in_budget =
  QCheck.Test.make ~count:50 ~name:"delivery monotone in retry budget (seed printed)"
    rate_arb (fun (drop, plan_seed) ->
      let delivered budget =
        List.init 40 (fun i ->
            let inj =
              Faults.Injector.create
                (Faults.Plan.with_seed
                   (Faults.Plan.uniform ~drop ())
                   (Int64.of_int (plan_seed + i)))
            in
            let t = Reliability.Tracker.create (policy budget) in
            Reliability.Tracker.with_retries t ~dst:(pt (i mod 8)) (fun () ->
                not (Faults.Injector.search_lost inj)))
      in
      List.for_all2
        (fun small large -> (not small) || large)
        (delivered 1) (delivered 2))

(* The end-to-end shape E22 banks on: under heavy loss, a budget
   strictly improves delivery through the real network. *)
let test_budget_recovers_deliveries () =
  let count reliability =
    let plan = Faults.Plan.with_seed (Faults.Plan.uniform ~drop:0.5 ()) 9L in
    let net =
      Protocol.Network.create
        ~conditions:(Sim.Conditions.make ~faults:plan ?reliability ())
        (Prng.Rng.create 2) ~latency
    in
    let ids = List.init 8 (fun i -> pt (i + 1)) in
    List.iter (fun id -> Protocol.Network.register net id (fun _ ~now:_ _ -> ())) ids;
    List.iter
      (fun dst ->
        for _ = 1 to 20 do
          Protocol.Network.send net ~to_:dst
            (Protocol.Message.Search_reply
               { qid = 0; responsible = pt 0; responder_count = 1 })
        done)
      ids;
    Protocol.Network.run net;
    Protocol.Network.messages_delivered net
  in
  let bare = count None in
  let armed = count (Some (policy 4)) in
  Alcotest.(check bool)
    (Printf.sprintf "armed (%d) > bare (%d) of 160" armed bare)
    true
    (armed > bare && armed > 150)

(* The acceptance check from the issue: E22's table is identical for
   --jobs 1 and --jobs 4 under the same seed. *)
let test_e22_jobs_invariant () =
  let render jobs =
    Experiments.Table.render
      (Experiments.Exp_reliability.run_e22 ~jobs (Prng.Rng.create 1)
         Experiments.Scale.Quick)
  in
  Alcotest.(check string) "E22: jobs=4 = jobs=1" (render 1) (render 4)

(* --- Substream merge algebra -------------------------------------- *)

(* The parallel epoch transition splits one tracker's event stream
   over slices (forks) and folds the per-destination S/E run-length
   summaries back with [merge_events]. Jobs-invariance rests on the
   fold being independent of where the slice boundaries fell — which
   is exactly: for every event string and every way of cutting it,
   fork-apply-merge must leave the master with the same
   consecutive-failure counts, circuit verdicts, and circuit-open
   metric as applying the events to the master directly. *)

let apply_events tr dsts events =
  List.iter
    (fun (di, ev) ->
      let dst = List.nth dsts di in
      match ev with
      | `S -> Reliability.Tracker.record_success tr dst
      | `E -> Reliability.Tracker.record_exhausted tr dst)
    events

(* The reference semantics: the events applied to the master
   directly, no forking. *)
let run_direct ~circuit dsts events =
  let metrics = Metrics_core.create () in
  let master = Reliability.Tracker.create ~metrics (policy ~circuit 2) in
  apply_events master dsts events;
  master

(* Cut [events] at [cuts] (sorted positions), fork one slice per
   segment, apply, merge back in segment order. *)
let run_sliced ~circuit dsts events cuts =
  let metrics = Metrics_core.create () in
  let master = Reliability.Tracker.create ~metrics (policy ~circuit 2) in
  let rec segments lo = function
    | [] -> [ (lo, List.length events) ]
    | c :: rest -> (lo, c) :: segments c rest
  in
  List.iter
    (fun (lo, hi) ->
      let slice_metrics = Metrics_core.create () in
      let f = Reliability.Tracker.fork master ~metrics:slice_metrics in
      apply_events f dsts
        (List.filteri (fun i _ -> i >= lo && i < hi) events);
      Reliability.Tracker.merge_events ~into:master f;
      Metrics_core.merge metrics slice_metrics)
    (segments 0 cuts);
  master

let tracker_state dsts tr =
  ( List.map (Reliability.Tracker.consecutive_failures tr) dsts,
    List.map (Reliability.Tracker.circuit_open tr) dsts,
    Metrics_core.found
      (Metrics_core.snapshot (Reliability.Tracker.metrics tr))
      Metrics_core.retry_circuit_opens )

let test_merge_matches_direct () =
  let dsts = [ pt 10; pt 20 ] in
  (* Interleaved runs over two destinations, crossing the threshold
     (3) in the middle of a would-be slice for dst 0 and exactly at a
     boundary for dst 1. *)
  let events =
    [
      (0, `E); (1, `E); (0, `E); (0, `S); (1, `E); (0, `E); (1, `E);
      (0, `E); (0, `E); (1, `S); (1, `E);
    ]
  in
  let expect = tracker_state dsts (run_direct ~circuit:3 dsts events) in
  List.iter
    (fun cuts ->
      let got = tracker_state dsts (run_sliced ~circuit:3 dsts events cuts) in
      Alcotest.(check (triple (list int) (list bool) int))
        (Printf.sprintf "cut at [%s] = direct"
           (String.concat ";" (List.map string_of_int cuts)))
        expect got)
    [ []; [ 1 ]; [ 3 ]; [ 5 ]; [ 3; 7 ]; [ 1; 2; 3 ]; [ 2; 4; 6; 8; 10 ] ]

let prop_merge_boundary_invariant =
  let open QCheck in
  let event = map (fun (d, s) -> (d, (if s then `S else `E))) (pair (int_bound 2) bool) in
  Test.make ~count:200 ~name:"fork/merge invariant under slice boundaries"
    (pair (list_of_size Gen.(int_range 1 24) event) (small_list (int_range 1 23)))
    (fun (events, raw_cuts) ->
      let dsts = [ pt 10; pt 20; pt 30 ] in
      let n = List.length events in
      let cuts =
        List.sort_uniq compare (List.filter (fun c -> c < n) raw_cuts)
      in
      tracker_state dsts (run_direct ~circuit:3 dsts events)
      = tracker_state dsts (run_sliced ~circuit:3 dsts events cuts))

let test_fork_reads_frozen_circuit () =
  (* A circuit opened inside a slice must not be visible until the
     merge: verdicts during a transition depend only on the state at
     its start, never on slice boundaries. *)
  let master = Reliability.Tracker.create (policy ~circuit:2 1) in
  let f = Reliability.Tracker.fork master ~metrics:(Metrics_core.create ()) in
  Reliability.Tracker.record_exhausted f (pt 5);
  Reliability.Tracker.record_exhausted f (pt 5);
  Reliability.Tracker.record_exhausted f (pt 5);
  Alcotest.(check bool) "open not visible inside the slice" false
    (Reliability.Tracker.circuit_open f (pt 5));
  Reliability.Tracker.merge_events ~into:master f;
  Alcotest.(check bool) "open after the merge" true
    (Reliability.Tracker.circuit_open master (pt 5));
  Alcotest.(check int) "run length merged" 3
    (Reliability.Tracker.consecutive_failures master (pt 5))

let () =
  Alcotest.run "reliability"
    [
      ( "policy",
        [
          Alcotest.test_case "validation" `Quick test_policy_validation;
          Alcotest.test_case "backoff schedule" `Quick test_backoff_schedule;
        ] );
      ( "tracker",
        [
          Alcotest.test_case "schedule replays from seed" `Quick
            test_tracker_schedule_replays;
          Alcotest.test_case "inactive tracker is inert" `Quick
            test_inactive_tracker_is_inert;
          Alcotest.test_case "with_retries counters" `Quick test_with_retries_counts;
          Alcotest.test_case "circuit breaker" `Quick test_circuit_breaker_opens;
        ] );
      ( "zero-retry anchor",
        [
          QCheck_alcotest.to_alcotest prop_zero_policy_search;
          Alcotest.test_case "epoch chain" `Quick test_zero_policy_epochs;
          Alcotest.test_case "E19 render" `Slow test_zero_policy_e19_render;
        ] );
      ( "monotonicity",
        [
          QCheck_alcotest.to_alcotest prop_delivery_monotone_in_budget;
          Alcotest.test_case "budget recovers deliveries" `Quick
            test_budget_recovers_deliveries;
          Alcotest.test_case "E22 jobs invariance" `Slow test_e22_jobs_invariant;
        ] );
      ( "substream merge",
        [
          Alcotest.test_case "sliced = direct" `Quick test_merge_matches_direct;
          QCheck_alcotest.to_alcotest prop_merge_boundary_invariant;
          Alcotest.test_case "circuit frozen until merge" `Quick
            test_fork_reads_frozen_circuit;
        ] );
    ]
