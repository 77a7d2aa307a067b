(* Ben-Or randomized agreement, cross-checked against Phase King. *)

let rng = Prng.Rng.create 1999

let good_decisions (decisions : bool option array) byzantine =
  let out = ref [] in
  Array.iteri
    (fun i d ->
      match d with
      | Some v when not byzantine.(i) -> out := v :: !out
      | Some _ | None -> ())
    decisions;
  !out

let behaviours =
  [
    Agreement.Phase_king.Silent;
    Agreement.Phase_king.Random;
    Agreement.Phase_king.Equivocate;
    Agreement.Phase_king.Collude_against true;
    Agreement.Phase_king.Collude_against false;
  ]

let test_benor_validity () =
  List.iter
    (fun behaviour ->
      List.iter
        (fun common ->
          let g = 11 in
          let byzantine = Array.init g (fun i -> i < 2) in
          Prng.Rng.shuffle rng byzantine;
          let inputs = Array.map (fun b -> if b then not common else common) byzantine in
          let o =
            Agreement.Benor.run rng ~inputs ~byzantine ~behaviour ~max_rounds:200
          in
          (* Unanimous good input: everyone decides it in round 1. *)
          Alcotest.(check int) "one round" 1 o.Agreement.Benor.rounds;
          List.iter
            (fun v -> Alcotest.(check bool) "validity" common v)
            (good_decisions o.Agreement.Benor.decisions byzantine))
        [ true; false ])
    behaviours

let test_benor_agreement () =
  List.iter
    (fun behaviour ->
      for _ = 1 to 20 do
        let g = 11 in
        let t = 2 in
        Alcotest.(check bool) "bound" true (Agreement.Benor.tolerates ~g ~t);
        let byzantine = Array.init g (fun i -> i < t) in
        Prng.Rng.shuffle rng byzantine;
        let inputs = Array.init g (fun _ -> Prng.Rng.bool rng) in
        let o = Agreement.Benor.run rng ~inputs ~byzantine ~behaviour ~max_rounds:500 in
        match good_decisions o.Agreement.Benor.decisions byzantine with
        | [] -> Alcotest.fail "no good processor decided within the cap"
        | first :: rest ->
            List.iter (fun v -> Alcotest.(check bool) "agreement" first v) rest
      done)
    behaviours

let test_benor_terminates_quickly () =
  (* Expected constant rounds at construction sizes: measure the
     empirical mean against a generous cap. *)
  let total = ref 0 in
  let runs = 50 in
  for _ = 1 to runs do
    let g = 11 in
    let byzantine = Array.init g (fun i -> i < 2) in
    Prng.Rng.shuffle rng byzantine;
    let inputs = Array.init g (fun _ -> Prng.Rng.bool rng) in
    let o =
      Agreement.Benor.run rng ~inputs ~byzantine
        ~behaviour:Agreement.Phase_king.Equivocate ~max_rounds:1000
    in
    total := !total + o.Agreement.Benor.rounds
  done;
  let mean = float_of_int !total /. float_of_int runs in
  Alcotest.(check bool) (Printf.sprintf "mean rounds %.1f small" mean) true (mean < 30.)

let test_benor_bound () =
  Alcotest.(check bool) "5t < g" true (Agreement.Benor.tolerates ~g:11 ~t:2);
  Alcotest.(check bool) "5t = g fails" false (Agreement.Benor.tolerates ~g:10 ~t:2)

(* Cross-validation: the two binary protocols agree with each other
   on the same adversary-free instance. *)
let test_cross_protocol_consistency () =
  for _ = 1 to 20 do
    let g = 10 in
    let byzantine = Array.make g false in
    let inputs = Array.init g (fun _ -> Prng.Rng.bool rng) in
    let pk =
      Agreement.Phase_king.run rng ~inputs ~byzantine
        ~behaviour:Agreement.Phase_king.Silent
    in
    let bo =
      Agreement.Benor.run rng ~inputs ~byzantine ~behaviour:Agreement.Phase_king.Silent
        ~max_rounds:500
    in
    (* Both must reach internal agreement (the agreed value may
       legitimately differ between protocols on split inputs). *)
    let uniform decisions =
      let vs =
        Array.to_list decisions |> List.filter_map (fun d -> d)
      in
      match vs with
      | [] -> false
      | first :: rest -> List.for_all (Bool.equal first) rest
    in
    Alcotest.(check bool) "phase king internally consistent" true
      (uniform pk.Agreement.Phase_king.decisions);
    Alcotest.(check bool) "ben-or internally consistent" true
      (uniform bo.Agreement.Benor.decisions)
  done

let prop_benor_agreement =
  QCheck.Test.make ~name:"ben-or agrees under random faults" ~count:40
    QCheck.(pair small_int (int_range 6 16))
    (fun (seed, g) ->
      let r = Prng.Rng.create (seed + 31) in
      let t = (g - 1) / 5 in
      let byzantine = Array.init g (fun i -> i < t) in
      Prng.Rng.shuffle r byzantine;
      let inputs = Array.init g (fun _ -> Prng.Rng.bool r) in
      let o =
        Agreement.Benor.run r ~inputs ~byzantine ~behaviour:Agreement.Phase_king.Random
          ~max_rounds:1000
      in
      match good_decisions o.Agreement.Benor.decisions byzantine with
      | [] -> false
      | first :: rest -> List.for_all (Bool.equal first) rest)

let () =
  Alcotest.run "benor"
    [
      ( "ben-or",
        [
          Alcotest.test_case "validity in one round" `Quick test_benor_validity;
          Alcotest.test_case "agreement under every behaviour" `Quick test_benor_agreement;
          Alcotest.test_case "quick termination" `Slow test_benor_terminates_quickly;
          Alcotest.test_case "fault bound" `Quick test_benor_bound;
        ] );
      ( "cross",
        [ Alcotest.test_case "protocols self-consistent" `Quick test_cross_protocol_consistency ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_benor_agreement ]);
    ]
