(* The member-level protocol stack: network transport and the real
   secure-search execution. *)

open Idspace

let rng = Prng.Rng.create 4004

let latency = Sim.Latency.constant 10

(* Network transport. *)

let test_network_delivers () =
  let net = Protocol.Network.create (Prng.Rng.split rng) ~latency in
  let got = ref [] in
  let a = Point.of_float 0.1 in
  Protocol.Network.register net a (fun _ ~now msg -> got := (now, msg) :: !got);
  Protocol.Network.send net ~to_:a
    (Protocol.Message.Search_reply
       { Protocol.Message.qid = 7; responsible = Point.of_float 0.5; responder_count = 3 });
  Protocol.Network.run net;
  match !got with
  | [ (now, Protocol.Message.Search_reply r) ] ->
      Alcotest.(check int) "constant latency" 10 now;
      Alcotest.(check int) "payload" 7 r.Protocol.Message.qid;
      Alcotest.(check int) "one message" 1 (Protocol.Network.messages_sent net)
  | _ -> Alcotest.fail "expected exactly one delivery"

let test_network_drops_unregistered () =
  let net = Protocol.Network.create (Prng.Rng.split rng) ~latency in
  Protocol.Network.send net ~to_:(Point.of_float 0.9)
    (Protocol.Message.Search_reply
       { Protocol.Message.qid = 1; responsible = Point.of_float 0.5; responder_count = 3 });
  (* Must not raise; the message is counted but vanishes. *)
  Protocol.Network.run net;
  Alcotest.(check int) "counted" 1 (Protocol.Network.messages_sent net)

let test_network_deadline () =
  let net = Protocol.Network.create (Prng.Rng.split rng) ~latency:(Sim.Latency.constant 100) in
  let got = ref 0 in
  let a = Point.of_float 0.2 in
  Protocol.Network.register net a (fun _ ~now:_ _ -> incr got);
  Protocol.Network.send net ~to_:a
    (Protocol.Message.Search_reply
       { Protocol.Message.qid = 1; responsible = a; responder_count = 1 });
  Protocol.Network.run ~deadline:50 net;
  Alcotest.(check int) "not yet delivered" 0 !got

(* Secure search, member level. *)

let build ?(n = 256) ?(beta = 0.05) () =
  let _, g = Experiments.Common.build_tiny (Prng.Rng.split rng) ~n ~beta () in
  g

let run g ~behaviour ~src ~key =
  Protocol.Secure_search.run_search (Prng.Rng.split rng) g ~latency ~behaviour ~src ~key ()

let test_search_resolves_clean () =
  let g = build ~beta:0.0 () in
  let leaders = Tinygroups.Group_graph.leaders g in
  let ring = Adversary.Population.ring (Tinygroups.Group_graph.population g) in
  for _ = 1 to 20 do
    let src = leaders.(Prng.Rng.int rng (Array.length leaders)) in
    let key = Point.random rng in
    match (run g ~behaviour:Protocol.Secure_search.Silent ~src ~key).result with
    | `Resolved v ->
        Alcotest.(check bool) "true successor" true
          (Point.equal v (Ring.successor_exn ring key))
    | `Hijacked _ | `Timeout -> Alcotest.fail "clean system must resolve"
  done

let test_search_latency_positive () =
  let g = build ~beta:0.0 () in
  let src = (Tinygroups.Group_graph.leaders g).(0) in
  let o = run g ~behaviour:Protocol.Secure_search.Silent ~src ~key:(Point.random rng) in
  Alcotest.(check bool) "took time" true (o.latency_ms >= 10);
  Alcotest.(check bool) "messages flowed" true (o.messages > 0)

let test_search_agrees_with_analytic () =
  let g = build ~n:512 ~beta:0.10 () in
  let leaders = Tinygroups.Group_graph.leaders g in
  let agreements = ref 0 in
  let total = 40 in
  for _ = 1 to total do
    let src = leaders.(Prng.Rng.int rng (Array.length leaders)) in
    let key = Point.random rng in
    let proto = run g ~behaviour:Protocol.Secure_search.Colluding ~src ~key in
    let analytic = Tinygroups.Secure_route.search g ~failure:`Majority ~src ~key in
    let a_ok = Tinygroups.Secure_route.succeeded analytic in
    let agrees =
      match proto.result with
      | `Resolved _ -> a_ok
      | `Hijacked _ | `Timeout -> not a_ok
    in
    if agrees then incr agreements
  done;
  Alcotest.(check bool)
    (Printf.sprintf "protocol matches analytic model (%d/%d)" !agreements total)
    true
    (!agreements >= total - 4)

let test_search_colluding_cannot_beat_successor_rule () =
  (* With a good-majority system the adversary's plant is never
     closer than the true successor, so collusion cannot win. *)
  let g = build ~n:512 ~beta:0.05 () in
  let leaders = Tinygroups.Group_graph.leaders g in
  let hijacks = ref 0 in
  for _ = 1 to 30 do
    let src = leaders.(Prng.Rng.int rng (Array.length leaders)) in
    let key = Point.random rng in
    match (run g ~behaviour:Protocol.Secure_search.Colluding ~src ~key).result with
    | `Hijacked _ -> incr hijacks
    | `Resolved _ | `Timeout -> ()
  done;
  Alcotest.(check bool) (Printf.sprintf "hijacks rare (%d/30)" !hijacks) true (!hijacks <= 1)

let test_search_timeout_when_blocked () =
  (* Plant a confused/red group on a known path and require the
     protocol to time out (silent adversary controls the hop). *)
  let g = build ~n:128 ~beta:0.45 () in
  (* At beta 0.45 many groups lack quorum paths; at least some
     searches must fail to resolve truthfully. *)
  let leaders = Tinygroups.Group_graph.leaders g in
  let failures = ref 0 in
  for _ = 1 to 20 do
    let src = leaders.(Prng.Rng.int rng (Array.length leaders)) in
    let key = Point.random rng in
    match (run g ~behaviour:Protocol.Secure_search.Silent ~src ~key).result with
    | `Timeout -> incr failures
    | `Resolved _ | `Hijacked _ -> ()
  done;
  Alcotest.(check bool)
    (Printf.sprintf "blocked searches time out (%d/20)" !failures)
    true (!failures > 0)

let test_search_deterministic () =
  let g = build ~beta:0.05 () in
  let src = (Tinygroups.Group_graph.leaders g).(1) in
  let key = Point.of_float 0.606 in
  let o1 =
    Protocol.Secure_search.run_search (Prng.Rng.create 9) g ~latency
      ~behaviour:Protocol.Secure_search.Colluding ~src ~key ()
  in
  let o2 =
    Protocol.Secure_search.run_search (Prng.Rng.create 9) g ~latency
      ~behaviour:Protocol.Secure_search.Colluding ~src ~key ()
  in
  Alcotest.(check bool) "same result" true (o1.result = o2.result);
  Alcotest.(check int) "same messages" o1.messages o2.messages;
  Alcotest.(check int) "same latency" o1.latency_ms o2.latency_ms

let () =
  Alcotest.run "protocol"
    [
      ( "network",
        [
          Alcotest.test_case "delivers with latency" `Quick test_network_delivers;
          Alcotest.test_case "drops unregistered" `Quick test_network_drops_unregistered;
          Alcotest.test_case "deadline" `Quick test_network_deadline;
        ] );
      ( "secure-search",
        [
          Alcotest.test_case "resolves in a clean system" `Quick test_search_resolves_clean;
          Alcotest.test_case "latency and messages" `Quick test_search_latency_positive;
          Alcotest.test_case "agrees with the analytic model" `Slow
            test_search_agrees_with_analytic;
          Alcotest.test_case "successor rule beats collusion" `Slow
            test_search_colluding_cannot_beat_successor_rule;
          Alcotest.test_case "blocked searches time out" `Slow test_search_timeout_when_blocked;
          Alcotest.test_case "deterministic replay" `Quick test_search_deterministic;
        ] );
    ]
