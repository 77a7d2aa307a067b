(* Byzantine agreement inside groups: phase king's agreement and
   validity under every implemented adversary, and the all-to-all +
   majority-filter broadcast primitive. *)

let rng = Prng.Rng.create 77

let behaviours =
  [
    ("silent", Agreement.Phase_king.Silent);
    ("random", Agreement.Phase_king.Random);
    ("equivocate", Agreement.Phase_king.Equivocate);
    ("collude-0", Agreement.Phase_king.Collude_against false);
    ("collude-1", Agreement.Phase_king.Collude_against true);
  ]

let good_decisions outcome byzantine =
  let out = ref [] in
  Array.iteri
    (fun i d ->
      match d with
      | Some v when not byzantine.(i) -> out := v :: !out
      | Some _ | None -> ())
    outcome.Agreement.Phase_king.decisions;
  !out

let run_case ~g ~t ~behaviour ~inputs_gen =
  let byzantine = Array.init g (fun i -> i < t) in
  (* Shuffle fault positions so the king schedule is exercised. *)
  Prng.Rng.shuffle rng byzantine;
  let inputs = inputs_gen byzantine in
  let outcome = Agreement.Phase_king.run rng ~inputs ~byzantine ~behaviour in
  (outcome, byzantine, inputs)

let check_agreement ~g ~t ~behaviour =
  for _ = 1 to 30 do
    let outcome, byzantine, _ =
      run_case ~g ~t ~behaviour ~inputs_gen:(fun _ ->
          Array.init g (fun _ -> Prng.Rng.bool rng))
    in
    match good_decisions outcome byzantine with
    | [] -> Alcotest.fail "no good processors"
    | first :: rest ->
        List.iter (fun v -> Alcotest.(check bool) "agreement" first v) rest
  done

let check_validity ~g ~t ~behaviour =
  List.iter
    (fun common ->
      for _ = 1 to 15 do
        let outcome, byzantine, _ =
          run_case ~g ~t ~behaviour ~inputs_gen:(fun byz ->
              (* Good processors share an input; Byzantine inputs are
                 irrelevant noise. *)
              Array.map (fun b -> if b then Prng.Rng.bool rng else common) byz)
        in
        List.iter
          (fun v -> Alcotest.(check bool) "validity" common v)
          (good_decisions outcome byzantine)
      done)
    [ true; false ]

let test_agreement_all_behaviours () =
  List.iter (fun (_, b) -> check_agreement ~g:9 ~t:2 ~behaviour:b) behaviours

let test_validity_all_behaviours () =
  List.iter (fun (_, b) -> check_validity ~g:9 ~t:2 ~behaviour:b) behaviours

let test_no_faults () =
  let inputs = [| true; false; true; true; false |] in
  let byzantine = Array.make 5 false in
  let outcome =
    Agreement.Phase_king.run rng ~inputs ~byzantine ~behaviour:Agreement.Phase_king.Silent
  in
  (* t = 0: decided in one phase, all agree. *)
  match good_decisions outcome byzantine with
  | first :: rest -> List.iter (fun v -> Alcotest.(check bool) "agree" first v) rest
  | [] -> Alcotest.fail "no decisions"

let test_larger_groups () =
  (* The sizes the construction actually uses (|G| = 9..13), at the
     fault bound. *)
  List.iter
    (fun g ->
      let t = (g - 1) / 4 in
      Alcotest.(check bool) "tolerates" true (Agreement.Phase_king.tolerates ~g ~t);
      check_agreement ~g ~t ~behaviour:Agreement.Phase_king.Equivocate;
      check_validity ~g ~t ~behaviour:Agreement.Phase_king.Equivocate)
    [ 9; 11; 13; 17 ]

let test_tolerates_bound () =
  Alcotest.(check bool) "4t < g ok" true (Agreement.Phase_king.tolerates ~g:9 ~t:2);
  Alcotest.(check bool) "4t = g not ok" false (Agreement.Phase_king.tolerates ~g:8 ~t:2);
  Alcotest.(check bool) "t=0 trivially" true (Agreement.Phase_king.tolerates ~g:1 ~t:0)

let test_message_cost_quadratic () =
  let run g =
    let inputs = Array.make g true in
    let byzantine = Array.make g false in
    let o =
      Agreement.Phase_king.run rng ~inputs ~byzantine ~behaviour:Agreement.Phase_king.Silent
    in
    o.Agreement.Phase_king.messages
  in
  let m9 = run 9 and m18 = run 18 in
  (* t = 0 either way: one phase, so messages scale ~ g^2. *)
  Alcotest.(check bool)
    (Printf.sprintf "quadratic growth: %d -> %d" m9 m18)
    true
    (m18 > 3 * m9)

let test_rejects_mismatched () =
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Phase_king.run: array length mismatch") (fun () ->
      ignore
        (Agreement.Phase_king.run rng ~inputs:[| true |] ~byzantine:[| false; true |]
           ~behaviour:Agreement.Phase_king.Silent))

(* Broadcast: the secure-routing primitive. *)

let test_broadcast_good_majority_delivers () =
  let sender_good = [| true; true; true; false; false |] in
  let r =
    Agreement.Broadcast.send ~sender_good ~receiver_count:4 ~value:"payload"
      ~forge:(fun ~recipient:_ -> Some "forged")
  in
  Array.iter
    (function
      | Some v -> Alcotest.(check string) "majority filtering wins" "payload" v
      | None -> Alcotest.fail "should deliver")
    r.Agreement.Broadcast.delivered;
  Alcotest.(check int) "messages = |G1| * |G2|" 20 r.Agreement.Broadcast.messages

let test_broadcast_bad_majority_forges () =
  let sender_good = [| true; false; false |] in
  let r =
    Agreement.Broadcast.send ~sender_good ~receiver_count:2 ~value:1
      ~forge:(fun ~recipient:_ -> Some 666)
  in
  Array.iter
    (function
      | Some v -> Alcotest.(check int) "adversary controls output" 666 v
      | None -> Alcotest.fail "bad majority can still deliver (its own value)")
    r.Agreement.Broadcast.delivered

let test_broadcast_silence_no_quorum () =
  (* Exactly half good, bad senders silent: no strict majority. *)
  let sender_good = [| true; true; false; false |] in
  let r =
    Agreement.Broadcast.send ~sender_good ~receiver_count:3 ~value:"v"
      ~forge:(fun ~recipient:_ -> None)
  in
  Array.iter
    (function
      | None -> ()
      | Some _ -> Alcotest.fail "half the group cannot form a strict majority")
    r.Agreement.Broadcast.delivered

let test_broadcast_per_recipient_equivocation () =
  (* Equivocating senders cannot break a good majority even with
     per-recipient forgeries. *)
  let sender_good = [| true; true; true; true; false; false; false |] in
  let r =
    Agreement.Broadcast.send ~sender_good ~receiver_count:8 ~value:0
      ~forge:(fun ~recipient -> Some recipient)
  in
  Array.iter
    (function
      | Some 0 -> ()
      | Some v -> Alcotest.failf "equivocation won: %d" v
      | None -> Alcotest.fail "should deliver")
    r.Agreement.Broadcast.delivered

let test_relay_cost () =
  (* Relaying across [hops] group-graph edges, one all-to-all transfer
     per edge, costs [hops * g^2] messages: the paper's O(D |G|^2). *)
  let hops = 7 and g = 11 in
  let messages =
    List.fold_left
      (fun acc _ ->
        let r =
          Agreement.Broadcast.send ~sender_good:(Array.make g true) ~receiver_count:g ~value:0
            ~forge:(fun ~recipient:_ -> None)
        in
        acc + r.Agreement.Broadcast.messages)
      0 (List.init hops Fun.id)
  in
  Alcotest.(check int) "D * g^2" (hops * g * g) messages

(* Commit-reveal group RNG. *)

let test_commit_reveal_honest () =
  let o =
    Agreement.Commit_reveal.run rng ~good:8 ~bad:0
      ~plan:{ Agreement.Commit_reveal.withhold_if_output_even = false }
  in
  Alcotest.(check int) "nobody excluded" 0 o.Agreement.Commit_reveal.excluded;
  Alcotest.(check int) "nothing reconstructed" 0 o.Agreement.Commit_reveal.reconstructed;
  (* 8 commits + 8 shares + 8 reveals, each to 7 peers. *)
  Alcotest.(check int) "3 g^2-ish messages" (3 * 8 * 7) o.Agreement.Commit_reveal.messages

let test_commit_reveal_recovers_aborters () =
  (* Run until a withholding round occurs; the withheld values must be
     reconstructed and the aborters expelled. *)
  let saw_recovery = ref false in
  for _ = 1 to 40 do
    let o =
      Agreement.Commit_reveal.run rng ~good:6 ~bad:3
        ~plan:{ Agreement.Commit_reveal.withhold_if_output_even = true }
    in
    if o.Agreement.Commit_reveal.excluded > 0 then begin
      saw_recovery := true;
      Alcotest.(check int) "all colluders burned" 3 o.Agreement.Commit_reveal.excluded;
      Alcotest.(check int) "their values recovered" 3 o.Agreement.Commit_reveal.reconstructed
    end
  done;
  Alcotest.(check bool) "the attack fired at least once" true !saw_recovery

let test_commit_reveal_bias_measured () =
  (* The naive drop-the-abort variant is visibly biased (the coalition
     holds a conditional veto); share recovery removes the veto. *)
  let naive =
    Agreement.Commit_reveal.parity_bias rng ~trials:3000 ~good:6 ~bad:3 ~recovery:false
  in
  let defended =
    Agreement.Commit_reveal.parity_bias rng ~trials:3000 ~good:6 ~bad:3 ~recovery:true
  in
  Alcotest.(check bool)
    (Printf.sprintf "naive bias visible (%.3f even)" naive)
    true
    (naive < 0.35);
  Alcotest.(check bool)
    (Printf.sprintf "recovery unbiased (%.3f even)" defended)
    true
    (Float.abs (defended -. 0.5) < 0.05)

let test_commit_reveal_validation () =
  Alcotest.check_raises "no good members"
    (Invalid_argument "Commit_reveal.run: need at least one good member") (fun () ->
      ignore
        (Agreement.Commit_reveal.run rng ~good:0 ~bad:3
           ~plan:{ Agreement.Commit_reveal.withhold_if_output_even = false }))

(* --- E24: pinned message counts and the bit-complexity law ------- *)

(* The expected-message-count table (IN4150 exemplar style): exact
   protocol executions at fixed seeds, pinned literally. Regenerate
   with `dune exec bin/regen_goldens.exe -- --agreement-table` after
   an intended schedule change, and record why in EXPERIMENTS.md. *)
let golden_message_counts =
  [
    ("brb n=8 benign (closed form)", 119);
    ("brb n=16 benign (closed form)", 495);
    ("brb relay g=11 (closed form)", 231);
    ("phase-king g=9 t=0 fault-free", 90);
    ("phase-king g=9 t=2 silent", 216);
    ("phase-king g=9 t=2 equivocate", 270);
    ("phase-king g=13 t=3 collude-1", 728);
    ("sampler-ba n=64 t=7 silent", 12958);
    ("sampler-ba n=64 t=7 collude-1", 14592);
    ("sampler-ba n=128 t=15 collude-0", 43680);
    ("brb n=16 f=5 correct sender, byz silent", 375);
    ("brb n=16 f=5 equivocating sender", 330);
    ("brb n=16 f=5 forged quorum attempt", 150);
    ("randstring/flood n=256", 8203726);
    ("randstring/brb n=256", 15814257);
  ]

let test_golden_message_counts () =
  let actual = Experiments.Exp_agreement.message_count_rows () in
  Alcotest.(check int)
    "case count" (List.length golden_message_counts) (List.length actual);
  List.iter2
    (fun (glabel, gcount) (alabel, acount) ->
      Alcotest.(check string) "case label" glabel alabel;
      Alcotest.(check int) glabel gcount acount)
    golden_message_counts actual

let test_sampler_bits_grow_slower () =
  (* The King–Saia headline, asserted: as n doubles, sampler-BA's
     bits per node must grow strictly slower than Phase-King's at
     every step (the former ~ sqrt(n) log n, the latter ~ n). Both
     run against their strongest implemented adversary at t = n/8. *)
  let rng = Prng.Rng.create 4242 in
  let bits_per_node proto n =
    let t = max 1 ((n / 8) - if n mod 8 = 0 then 1 else 0) in
    let byzantine = Array.init n (fun i -> i < t) in
    Prng.Rng.shuffle rng byzantine;
    let inputs = Array.init n (fun _ -> Prng.Rng.bool rng) in
    let bits =
      match proto with
      | `Phase_king ->
          let o =
            Agreement.Phase_king.run rng ~inputs ~byzantine
              ~behaviour:Agreement.Phase_king.Equivocate
          in
          o.Agreement.Phase_king.messages
      | `Sampler ->
          let o =
            Agreement.Sampler_ba.run rng ~inputs ~byzantine
              ~behaviour:(Agreement.Sampler_ba.Collude_against true)
          in
          o.Agreement.Sampler_ba.bits
    in
    float_of_int bits /. float_of_int n
  in
  let sizes = [ 32; 64; 128; 256 ] in
  let pk = List.map (bits_per_node `Phase_king) sizes in
  let sa = List.map (bits_per_node `Sampler) sizes in
  let rec ratios = function
    | a :: (b :: _ as rest) -> (b /. a) :: ratios rest
    | _ -> []
  in
  List.iter2
    (fun pk_ratio sa_ratio ->
      Alcotest.(check bool)
        (Printf.sprintf
           "sampler bits/node growth %.2fx < phase-king %.2fx per doubling"
           sa_ratio pk_ratio)
        true
        (sa_ratio < pk_ratio))
    (ratios pk) (ratios sa);
  (* And the asymptotic gap is not marginal: by n = 256 Phase-King
     pays at least 3x the sampler's per-node bits. *)
  let pk_last = List.nth pk (List.length pk - 1) in
  let sa_last = List.nth sa (List.length sa - 1) in
  Alcotest.(check bool)
    (Printf.sprintf "gap at n=256: %.0f vs %.0f bits/node" pk_last sa_last)
    true
    (pk_last > 3. *. sa_last)

(* The sampler's zero anchor, as test_brb pins it for BRB: a
   zero-rate plan plus a budget-0 policy must be byte-identical to
   benign conditions — same outcome, same counters, and the
   simulation stream left in the same position (the injector and
   tracker draw only from their own seeds, and zero rates draw
   nothing). *)
let test_sampler_zero_conditions_are_benign () =
  let zero =
    Sim.Conditions.make
      ~faults:(Faults.Plan.uniform ())
      ~reliability:(Reliability.Policy.make ~max_retries:0 ())
      ()
  in
  List.iter
    (fun (name, behaviour) ->
      let run conditions =
        let rng = Prng.Rng.create 53 in
        let n = 48 in
        let byzantine = Array.init n (fun i -> i < 5) in
        Prng.Rng.shuffle rng byzantine;
        let inputs = Array.init n (fun _ -> Prng.Rng.bool rng) in
        let metrics = Sim.Metrics.create () in
        let o =
          Agreement.Sampler_ba.run ~conditions ~metrics rng ~inputs ~byzantine
            ~behaviour
        in
        (o, Sim.Metrics.(to_list (snapshot metrics)), Prng.Rng.int rng 1_000_000)
      in
      let o_none, m_none, tail_none = run Sim.Conditions.none in
      let o_zero, m_zero, tail_zero = run zero in
      Alcotest.(check bool)
        (Printf.sprintf "outcomes identical (%s)" name)
        true (o_none = o_zero);
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "counters identical (%s)" name)
        m_none m_zero;
      Alcotest.(check int)
        (Printf.sprintf "stream position identical (%s)" name)
        tail_none tail_zero)
    [
      ("silent", Agreement.Sampler_ba.Silent);
      ("random", Agreement.Sampler_ba.Random);
      ("collude-1", Agreement.Sampler_ba.Collude_against true);
    ]

let prop_agreement_random_faults =
  QCheck.Test.make ~name:"phase king agrees for random fault sets" ~count:60
    QCheck.(pair small_int (int_range 5 15))
    (fun (seed, g) ->
      let r = Prng.Rng.create (seed + 1000) in
      let t = (g - 1) / 4 in
      let byzantine = Array.init g (fun i -> i < t) in
      Prng.Rng.shuffle r byzantine;
      let inputs = Array.init g (fun _ -> Prng.Rng.bool r) in
      let o =
        Agreement.Phase_king.run r ~inputs ~byzantine
          ~behaviour:Agreement.Phase_king.Random
      in
      let decisions = ref [] in
      Array.iteri
        (fun i d ->
          match d with
          | Some v when not byzantine.(i) -> decisions := v :: !decisions
          | _ -> ())
        o.Agreement.Phase_king.decisions;
      match !decisions with
      | [] -> false
      | first :: rest -> List.for_all (Bool.equal first) rest)

let () =
  Alcotest.run "agreement"
    [
      ( "phase-king",
        [
          Alcotest.test_case "agreement under every behaviour" `Quick test_agreement_all_behaviours;
          Alcotest.test_case "validity under every behaviour" `Quick test_validity_all_behaviours;
          Alcotest.test_case "fault-free case" `Quick test_no_faults;
          Alcotest.test_case "construction-sized groups" `Slow test_larger_groups;
          Alcotest.test_case "fault bound" `Quick test_tolerates_bound;
          Alcotest.test_case "quadratic message cost" `Quick test_message_cost_quadratic;
          Alcotest.test_case "rejects mismatched arrays" `Quick test_rejects_mismatched;
        ] );
      ( "broadcast",
        [
          Alcotest.test_case "good majority delivers" `Quick test_broadcast_good_majority_delivers;
          Alcotest.test_case "bad majority forges" `Quick test_broadcast_bad_majority_forges;
          Alcotest.test_case "silence gives no quorum" `Quick test_broadcast_silence_no_quorum;
          Alcotest.test_case "equivocation filtered" `Quick test_broadcast_per_recipient_equivocation;
          Alcotest.test_case "relay cost formula" `Quick test_relay_cost;
        ] );
      ( "commit-reveal",
        [
          Alcotest.test_case "honest round" `Quick test_commit_reveal_honest;
          Alcotest.test_case "aborters recovered and expelled" `Quick
            test_commit_reveal_recovers_aborters;
          Alcotest.test_case "bias measured and defended" `Slow test_commit_reveal_bias_measured;
          Alcotest.test_case "validation" `Quick test_commit_reveal_validation;
        ] );
      ( "e24 golden",
        [
          Alcotest.test_case "pinned message counts" `Quick test_golden_message_counts;
          Alcotest.test_case "sampler bits/node grows slower than phase-king" `Quick
            test_sampler_bits_grow_slower;
          Alcotest.test_case "sampler zero-rate plan == benign" `Quick
            test_sampler_zero_conditions_are_benign;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_agreement_random_faults ]);
    ]
