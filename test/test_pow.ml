(* Proof-of-work: budgets, the epoch clock, ID generation cost and
   uniformity (Lemma 11), verification, expiry, and the single-hash
   ablation. *)

open Idspace

let rng = Prng.Rng.create 2718
let metrics = Sim.Metrics.create ()
let scheme = Pow.Identity.make_scheme ~system_key:"pow-test" ~epoch_steps:1024

let test_budget_arithmetic () =
  let b = Pow.Budget.create ~evals:10 in
  Alcotest.(check bool) "spend ok" true (Pow.Budget.spend b 4);
  Alcotest.(check int) "remaining" 6 (Pow.Budget.remaining b);
  Alcotest.(check int) "spent" 4 (Pow.Budget.spent b);
  Alcotest.(check bool) "overspend refused" false (Pow.Budget.spend b 7);
  Alcotest.(check int) "unchanged on refusal" 6 (Pow.Budget.remaining b);
  Alcotest.(check bool) "exact spend" true (Pow.Budget.spend b 6);
  Alcotest.(check int) "empty" 0 (Pow.Budget.remaining b)

let test_budget_shares () =
  (* The adversary's per-window budget is beta/(1-beta) of the good
     aggregate. *)
  let n = 1000 and epoch_steps = 4096 in
  let good_total = n * Pow.Budget.good_id_budget ~epoch_steps in
  let adv = Pow.Budget.adversary_budget ~beta:0.2 ~n ~epoch_steps in
  Alcotest.(check int) "quarter of good total" (good_total / 4) adv

let test_epoch_clock () =
  let c = Pow.Epoch_clock.create ~epoch_steps:100 in
  Alcotest.(check int) "step 0 is epoch 0" 0 (Pow.Epoch_clock.epoch_of_step c 0);
  Alcotest.(check int) "step 99" 0 (Pow.Epoch_clock.epoch_of_step c 99);
  Alcotest.(check int) "step 100" 1 (Pow.Epoch_clock.epoch_of_step c 100);
  Alcotest.(check int) "halfway of epoch 2" 250 (Pow.Epoch_clock.halfway c 2);
  Alcotest.(check int) "start of epoch 3" 300 (Pow.Epoch_clock.epoch_start c 3)

let test_id_lifecycle () =
  let c = Pow.Epoch_clock.create ~epoch_steps:100 in
  let open Pow.Epoch_clock in
  Alcotest.(check bool) "active in its epoch" true (id_state c ~minted_for:5 ~at_epoch:5 = Active);
  Alcotest.(check bool) "passive next epoch" true (id_state c ~minted_for:5 ~at_epoch:6 = Passive);
  Alcotest.(check bool) "expired after" true (id_state c ~minted_for:5 ~at_epoch:7 = Expired);
  Alcotest.(check bool) "not yet valid before" true (id_state c ~minted_for:5 ~at_epoch:4 = Expired)

let test_solve_costs_work () =
  let budget = Pow.Budget.create ~evals:100_000 in
  match Pow.Identity.solve rng scheme ~budget ~rand_string:42L ~metrics with
  | None -> Alcotest.fail "enough budget to solve"
  | Some c ->
      Alcotest.(check bool) "work was spent" true (Pow.Budget.spent budget > 0);
      Alcotest.(check bool) "verifies" true
        (Pow.Identity.verify scheme c ~known_strings:[ 42L ])

let test_solve_exhausts_small_budget () =
  (* With a 1-eval budget the solve almost surely fails (success rate
     is 2/T per attempt), and never overspends. *)
  let budget = Pow.Budget.create ~evals:1 in
  let _ = Pow.Identity.solve rng scheme ~budget ~rand_string:1L ~metrics in
  Alcotest.(check int) "spent exactly the budget" 0 (Pow.Budget.remaining budget)

let test_expected_cost_calibration () =
  (* tau is calibrated for ~T/2 evaluations per ID: check within 2x. *)
  let trials = 40 in
  let total = ref 0 in
  for _ = 1 to trials do
    let budget = Pow.Budget.create ~evals:1_000_000 in
    match Pow.Identity.solve rng scheme ~budget ~rand_string:7L ~metrics with
    | Some _ -> total := !total + Pow.Budget.spent budget
    | None -> Alcotest.fail "budget ample"
  done;
  let mean = float_of_int !total /. float_of_int trials in
  Alcotest.(check bool)
    (Printf.sprintf "mean evals %.0f ~ T/2 = 512" mean)
    true
    (mean > 200. && mean < 1200.)

let test_verify_rejects_wrong_string () =
  let budget = Pow.Budget.create ~evals:100_000 in
  let c = Option.get (Pow.Identity.solve rng scheme ~budget ~rand_string:42L ~metrics) in
  Alcotest.(check bool) "unknown string rejected (expiry)" false
    (Pow.Identity.verify scheme c ~known_strings:[ 41L; 43L ]);
  Alcotest.(check bool) "string in a larger solution set ok" true
    (Pow.Identity.verify scheme c ~known_strings:[ 1L; 42L; 3L ])

let test_verify_rejects_forged_id () =
  let budget = Pow.Budget.create ~evals:100_000 in
  let c = Option.get (Pow.Identity.solve rng scheme ~budget ~rand_string:9L ~metrics) in
  let forged = { c with Pow.Identity.id = Point.of_float 0.123 } in
  Alcotest.(check bool) "forged position rejected" false
    (Pow.Identity.verify scheme forged ~known_strings:[ 9L ]);
  let stolen = { c with Pow.Identity.sigma = Int64.add c.Pow.Identity.sigma 1L } in
  Alcotest.(check bool) "wrong witness rejected" false
    (Pow.Identity.verify scheme stolen ~known_strings:[ 9L ])

let test_lemma11_id_count () =
  (* The adversary mints at most ~ budget * 2/T IDs: with budget
     beta/(1-beta) n T/2 that is ~ beta/(1-beta) n. *)
  let n = 200 and epoch_steps = 1024 in
  let beta = 0.2 in
  let budget =
    Pow.Budget.create ~evals:(Pow.Budget.adversary_budget ~beta ~n ~epoch_steps)
  in
  let ids = Pow.Identity.solve_all rng scheme ~budget ~rand_string:5L ~metrics in
  let minted = List.length ids in
  let bound = Pow.Epoch_clock.lemma11_bound ~beta:(beta /. (1. -. beta)) ~n ~eps:0.5 in
  Alcotest.(check bool)
    (Printf.sprintf "minted %d within (1+eps) bound %d" minted bound)
    true (minted <= bound);
  Alcotest.(check bool) "mints a nontrivial number" true (minted > 0)

let test_lemma11_uniformity () =
  (* However sigma is chosen, minted IDs are uniform. Here the solver
     draws sigma uniformly; the targeted attack below shows choosing
     sigma cannot help because f rerandomises. *)
  let budget = Pow.Budget.create ~evals:400_000 in
  let scheme_fast = Pow.Identity.make_scheme ~system_key:"fast" ~epoch_steps:64 in
  let ids = Pow.Identity.solve_all rng scheme_fast ~budget ~rand_string:13L ~metrics in
  Alcotest.(check bool) "many ids" true (List.length ids > 3_000);
  let h = Stats.Histogram.create ~bins:20 () in
  List.iter
    (fun c -> Stats.Histogram.add h (Point.to_float c.Pow.Identity.id))
    ids;
  Alcotest.(check bool) "uniform" true
    (Stats.Histogram.chi_square_uniform h < Stats.Histogram.chi_square_critical_99 ~dof:19)

let test_single_hash_clusters () =
  (* The ablation: a single hash function lets the adversary place
     every ID inside its chosen arc. *)
  let target = Interval.make ~from:(Point.of_float 0.10) ~until:(Point.of_float 0.20) in
  let budget = Pow.Budget.create ~evals:300_000 in
  let scheme_fast = Pow.Identity.make_scheme ~system_key:"fast2" ~epoch_steps:64 in
  let placed = ref 0 in
  let inside = ref 0 in
  let continue = ref true in
  while !continue do
    match
      Pow.Identity.solve_single_hash_targeted rng scheme_fast ~budget ~target ~metrics
    with
    | Some id ->
        incr placed;
        if Interval.contains target id then incr inside
    | None -> continue := false
  done;
  Alcotest.(check bool) "minted plenty" true (!placed > 100);
  Alcotest.(check int) "every single one in the target arc" !placed !inside

let test_two_hash_defeats_targeting () =
  (* The "small inputs" strategy of §IV-A: the adversary restricts its
     witnesses to sequential small sigmas. Under the two-hash scheme
     the minted IDs are still uniform, because f rerandomises. *)
  let scheme_fast = Pow.Identity.make_scheme ~system_key:"fast3" ~epoch_steps:64 in
  let h = Stats.Histogram.create ~bins:10 () in
  let minted = ref 0 in
  for s = 0 to 100_000 do
    match Pow.Identity.attempt scheme_fast ~sigma:(Int64.of_int s) ~rand_string:3L with
    | Some c ->
        incr minted;
        Stats.Histogram.add h (Point.to_float c.Pow.Identity.id)
    | None -> ()
  done;
  Alcotest.(check bool) (Printf.sprintf "minted %d" !minted) true (!minted > 1000);
  Alcotest.(check bool) "IDs uniform despite targeted sigmas" true
    (Stats.Histogram.chi_square_uniform h < Stats.Histogram.chi_square_critical_99 ~dof:9)

let test_pre_computation_expires () =
  (* The pre-computation attack: IDs minted against epoch i's string
     are worthless once epoch i+1's string is drawn. *)
  let budget = Pow.Budget.create ~evals:200_000 in
  let stockpile = Pow.Identity.solve_all rng scheme ~budget ~rand_string:100L ~metrics in
  Alcotest.(check bool) "stockpile minted" true (List.length stockpile > 0);
  let usable_now =
    List.filter (fun c -> Pow.Identity.verify scheme c ~known_strings:[ 100L ]) stockpile
  in
  Alcotest.(check int) "all valid in their epoch" (List.length stockpile)
    (List.length usable_now);
  let usable_later =
    List.filter (fun c -> Pow.Identity.verify scheme c ~known_strings:[ 101L ]) stockpile
  in
  Alcotest.(check int) "all expired after the string rotates" 0 (List.length usable_later)

(* --- Difficulty controllers (DESIGN.md §12) --- *)

let test_controller_fixed_window () =
  let t = Pow.Controller.create (Pow.Controller.fixed ~epoch_steps:4096) ~n:16 in
  let fixed = Pow.Controller.fixed_difficulty t in
  Alcotest.(check int) "T/2" (Pow.Budget.good_id_budget ~epoch_steps:4096) fixed;
  Alcotest.(check int) "floor = fixed for Fixed" fixed (Pow.Controller.floor_difficulty t);
  let w = Pow.Controller.run_window t ~good:16 ~bad_budget:((5 * fixed) + 7) () in
  Alcotest.(check int) "price never moves (open)" fixed w.Pow.Controller.opening_price;
  Alcotest.(check int) "price never moves (close)" fixed w.Pow.Controller.closing_price;
  Alcotest.(check int) "Lemma 11 head-count: budget / (T/2)" 5
    w.Pow.Controller.admitted_bad;
  Alcotest.(check int) "good bill n x T/2" (16 * fixed) w.Pow.Controller.good_spend;
  Alcotest.(check int) "bad pays per admit" (5 * fixed) w.Pow.Controller.bad_spend;
  Alcotest.(check int) "change below one fee declined" 7
    w.Pow.Controller.declined_spend;
  Alcotest.(check int) "ledgers accumulate" (16 * fixed)
    (Pow.Controller.cumulative_good_spend t);
  Alcotest.(check int) "one window" 1 (Pow.Controller.windows t)

let test_controller_competitive_quiet_floor () =
  (* Zero adversary: the price decays from the conservative T/2 cold
     start to the floor within the first window and stays there. *)
  let t =
    Pow.Controller.create (Pow.Controller.competitive ~epoch_steps:4096 ()) ~n:64
  in
  let floor = Pow.Controller.floor_difficulty t in
  Alcotest.(check int) "floor = T/2 / 2^4" (2048 / 16) floor;
  let w1 = Pow.Controller.run_window t ~good:64 ~bad_budget:0 () in
  Alcotest.(check int) "cold start at the fixed price" 2048
    w1.Pow.Controller.opening_price;
  Alcotest.(check int) "first quiet window closes at the floor" floor
    w1.Pow.Controller.closing_price;
  let w2 = Pow.Controller.run_window t ~good:64 ~bad_budget:0 () in
  Alcotest.(check int) "and opens there next window" floor
    w2.Pow.Controller.opening_price;
  Alcotest.(check int) "steady-state bill n x floor" (64 * floor)
    w2.Pow.Controller.good_spend;
  Alcotest.(check int) "nothing admitted from nothing" 0
    (w1.Pow.Controller.admitted_bad + w2.Pow.Controller.admitted_bad)

let test_controller_admission_cap () =
  (* However large the stockpile, a window admits at most the previous
     window's bad count plus the newcomer slack (the GMCom throttle). *)
  let cfg = Pow.Controller.competitive ~epoch_steps:4096 () in
  let n = 256 in
  let t = Pow.Controller.create cfg ~n in
  let slack_cap =
    (* subrounds x per-round share of ceil(admission_slack x n) *)
    let total = int_of_float (ceil (cfg.Pow.Controller.admission_slack *. float_of_int n)) in
    let per_round = (total + cfg.Pow.Controller.subrounds - 1) / cfg.Pow.Controller.subrounds in
    cfg.Pow.Controller.subrounds * per_round
  in
  let w1 = Pow.Controller.run_window t ~good:n ~bad_budget:100_000_000 () in
  Alcotest.(check bool)
    (Printf.sprintf "window 1 admits %d <= slack cap %d"
       w1.Pow.Controller.admitted_bad slack_cap)
    true
    (w1.Pow.Controller.admitted_bad <= slack_cap);
  let w2 = Pow.Controller.run_window t ~good:n ~bad_budget:100_000_000 () in
  Alcotest.(check bool)
    (Printf.sprintf "window 2 admits %d <= tickets %d + slack cap %d"
       w2.Pow.Controller.admitted_bad w1.Pow.Controller.admitted_bad slack_cap)
    true
    (w2.Pow.Controller.admitted_bad
    <= w1.Pow.Controller.admitted_bad + slack_cap);
  Alcotest.(check bool) "flood drives the close to the ceiling" true
    (w2.Pow.Controller.closing_price
    = cfg.Pow.Controller.ceiling_factor * Pow.Controller.fixed_difficulty t)

let test_controller_validate_rejects () =
  Alcotest.check_raises "subrounds 0"
    (Invalid_argument "Controller: subrounds must be >= 1") (fun () ->
      ignore (Pow.Controller.competitive ~subrounds:0 ~epoch_steps:4096 ()))

let prop_competitive_never_outspends_fixed =
  (* The resource-competitive contract, quiet case: with no adversary
     the competitive good ledger is bounded by the fixed ledger at
     every window prefix (prices only fall or hold when joins do not
     exceed the expected rate). *)
  QCheck.Test.make ~name:"quiet competitive spend <= fixed spend at every prefix"
    ~count:60
    QCheck.(
      quad (int_range 4 64) (int_range 0 6) (int_range 1 8) (int_range 1 6))
    (fun (n, floor_shift, subrounds, windows) ->
      let comp =
        Pow.Controller.create
          (Pow.Controller.competitive ~floor_shift ~subrounds ~epoch_steps:4096 ())
          ~n
      in
      let fx = Pow.Controller.create (Pow.Controller.fixed ~epoch_steps:4096) ~n in
      let ok = ref true and closing = ref 0 in
      (* Quiet rounds halve the price, so reaching the floor takes
         ceil(floor_shift / subrounds) windows — run at least that
         many on top of the random count so the tail assertion is
         well-posed for every knob draw. *)
      let windows = max windows ((floor_shift / subrounds) + 1) in
      for _ = 1 to windows do
        closing :=
          (Pow.Controller.run_window comp ~good:n ~bad_budget:0 ()).Pow.Controller.closing_price;
        ignore (Pow.Controller.run_window fx ~good:n ~bad_budget:0 ());
        if
          Pow.Controller.cumulative_good_spend comp
          > Pow.Controller.cumulative_good_spend fx
        then ok := false
      done;
      (* And the quiet tail converges to the floor. *)
      !ok && !closing = Pow.Controller.floor_difficulty comp)

(* --- Join schedules --- *)

let test_join_schedule_budgets () =
  let rate = 1000 in
  let open Adversary.Join_schedule in
  Alcotest.(check int) "steady spends the rate" rate
    (epoch_budget steady ~epoch:3 ~rate);
  let b = bursty ~stockpile:3 ~period:10 ~active:1 () in
  Alcotest.(check int) "burst epoch spends the stockpile" (3 * rate)
    (epoch_budget b ~epoch:10 ~rate);
  Alcotest.(check int) "quiet epoch spends nothing" 0
    (epoch_budget b ~epoch:5 ~rate);
  Alcotest.(check int) "probing budgets like steady" rate
    (epoch_budget (probing ~num:1 ~den:4) ~epoch:0 ~rate)

let test_join_schedule_spends_at () =
  let open Adversary.Join_schedule in
  let fixed = 2048 in
  Alcotest.(check bool) "steady buys at any price" true
    (spends_at steady ~fixed ~price:(100 * fixed));
  let p = probing ~num:1 ~den:4 in
  Alcotest.(check bool) "probing buys at fixed/4" true
    (spends_at p ~fixed ~price:(fixed / 4));
  Alcotest.(check bool) "probing refuses above fixed/4" false
    (spends_at p ~fixed ~price:((fixed / 4) + 1))

let test_join_schedule_labels () =
  let open Adversary.Join_schedule in
  Alcotest.(check string) "steady" "steady" (label steady);
  Alcotest.(check string) "bursty" "bursty(1/10)"
    (label (bursty ~period:10 ~active:1 ()));
  Alcotest.(check string) "bursty stockpiled" "bursty(1/10,x3)"
    (label (bursty ~stockpile:3 ~period:10 ~active:1 ()));
  Alcotest.(check string) "probing" "probing(1/4)" (label (probing ~num:1 ~den:4));
  Alcotest.check_raises "active > period rejected"
    (Invalid_argument "Join_schedule.bursty: need 1 <= active <= period")
    (fun () -> ignore (bursty ~period:3 ~active:4 ()))

(* --- E26 acceptance (ISSUE, PR 10): pinned at quick scale, seed 1 --- *)

let test_e26_acceptance () =
  let r = Experiments.Exp_pow_epochs.run (Prng.Rng.create 1) Experiments.Scale.Quick in
  let get ~controller ~strategy_label =
    match
      List.find_opt
        (fun (row : Experiments.Exp_pow_epochs.row) ->
          row.controller = controller
          && Adversary.Join_schedule.label row.strategy = strategy_label
          && Float.abs (row.beta -. 0.125) < 1e-9)
        r.rows
    with
    | Some row -> row
    | None -> Alcotest.fail ("missing E26 row: " ^ strategy_label)
  in
  let open Experiments.Exp_pow_epochs in
  let fs = get ~controller:`Fixed ~strategy_label:"steady" in
  let cs = get ~controller:`Competitive ~strategy_label:"steady" in
  let fb = get ~controller:`Fixed ~strategy_label:"bursty(1/10)" in
  let cb = get ~controller:`Competitive ~strategy_label:"bursty(1/10)" in
  Alcotest.(check (float 1e-9)) "fixed rows are the 1.0 reference" 1.0 fs.vs_fixed;
  (* Steady beta = 1/8: competitive good spend within a constant
     factor (3x) of the paper's fixed bill. *)
  Alcotest.(check bool)
    (Printf.sprintf "steady: competitive %d <= 3 x fixed %d" cs.good_evals
       fs.good_evals)
    true
    (cs.good_evals <= 3 * fs.good_evals);
  (* 10%-duty-cycle burst: competitive at least 3x cheaper. *)
  Alcotest.(check bool)
    (Printf.sprintf "burst: fixed %d >= 3 x competitive %d" fb.good_evals
       cb.good_evals)
    true
    (fb.good_evals >= 3 * cb.good_evals);
  Alcotest.(check bool) "burst chain closes back at the floor" true
    cb.closing_floor;
  (* Epoch-chain survival is equal across controllers. *)
  List.iter
    (fun (name, row) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s survived (min success %.2f)" name row.min_success)
        true row.survived)
    [ ("fixed/steady", fs); ("competitive/steady", cs);
      ("fixed/bursty", fb); ("competitive/bursty", cb) ]

let prop_credentials_verify =
  QCheck.Test.make ~name:"every minted credential verifies" ~count:20
    QCheck.small_int (fun seed ->
      let r = Prng.Rng.create seed in
      let budget = Pow.Budget.create ~evals:200_000 in
      let m = Sim.Metrics.create () in
      match Pow.Identity.solve r scheme ~budget ~rand_string:77L ~metrics:m with
      | Some c -> Pow.Identity.verify scheme c ~known_strings:[ 77L ]
      | None -> true)

let () =
  Alcotest.run "pow"
    [
      ( "budget",
        [
          Alcotest.test_case "arithmetic" `Quick test_budget_arithmetic;
          Alcotest.test_case "power shares" `Quick test_budget_shares;
        ] );
      ( "epoch-clock",
        [
          Alcotest.test_case "step arithmetic" `Quick test_epoch_clock;
          Alcotest.test_case "ID lifecycle" `Quick test_id_lifecycle;
        ] );
      ( "identity",
        [
          Alcotest.test_case "solving costs work" `Quick test_solve_costs_work;
          Alcotest.test_case "budget exhaustion" `Quick test_solve_exhausts_small_budget;
          Alcotest.test_case "cost calibration ~ T/2" `Slow test_expected_cost_calibration;
          Alcotest.test_case "verify rejects wrong string" `Quick test_verify_rejects_wrong_string;
          Alcotest.test_case "verify rejects forgeries" `Quick test_verify_rejects_forged_id;
        ] );
      ( "lemma11",
        [
          Alcotest.test_case "ID count bounded by budget" `Slow test_lemma11_id_count;
          Alcotest.test_case "IDs uniform" `Slow test_lemma11_uniformity;
          Alcotest.test_case "single hash clusters (ablation)" `Slow test_single_hash_clusters;
          Alcotest.test_case "two hashes defeat targeting" `Slow test_two_hash_defeats_targeting;
          Alcotest.test_case "pre-computation expires" `Quick test_pre_computation_expires;
        ] );
      ( "controller",
        [
          Alcotest.test_case "fixed window arithmetic" `Quick
            test_controller_fixed_window;
          Alcotest.test_case "quiet competitive finds the floor" `Quick
            test_controller_competitive_quiet_floor;
          Alcotest.test_case "flood bounded by the admission cap" `Quick
            test_controller_admission_cap;
          Alcotest.test_case "validate rejects bad knobs" `Quick
            test_controller_validate_rejects;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "epoch budgets" `Quick test_join_schedule_budgets;
          Alcotest.test_case "price titration" `Quick test_join_schedule_spends_at;
          Alcotest.test_case "labels and validation" `Quick
            test_join_schedule_labels;
        ] );
      ( "e26-acceptance",
        [ Alcotest.test_case "competitive vs fixed (ISSUE PR 10)" `Slow test_e26_acceptance ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_credentials_verify;
          QCheck_alcotest.to_alcotest prop_competitive_never_outspends_fixed;
        ] );
    ]
