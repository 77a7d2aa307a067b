(* E26: difficulty controllers under adversarial join schedules.

   The paper's epochs charge every participant the fixed entrance
   price T/2 whether or not anyone is attacking; the
   resource-competitive line (GMCom / ToGCom) prices admission from
   the observed join rate. This experiment runs full epoch chains —
   population minting gated by a [Pow.Controller], graphs rebuilt
   through the old pair, searches sampled per epoch — across
   controller x join-schedule x beta cells and reports the spend
   ledgers, the good side's join latency, and whether the epoch chain
   survives (min per-epoch search success >= 1/2, the E21/E22
   collapse notion).

   The chains run with a 1-retry reliability tracker armed — the
   percolation cure E22 established: a neighbour establishment that
   fails through a hijacked group marks the new group suspect
   (degraded, routable) instead of confused (red). Without it the
   confused set compounds epoch over epoch and *every* cell at
   beta = 1/8 collapses by epoch ~4 regardless of controller, burying
   the controller comparison under the E21 percolation threshold.
   With it, survival measures what E26 is about: the adversarial
   head-count each controller actually admits.

   Everything in the rendered table is a pure function of
   (seed, scale); wall-clock lives only in the JSON report
   (`make bench-pow` -> BENCH_pow.json). *)

type controller_kind = [ `Fixed | `Competitive ]

type knobs = {
  n : int;
  epochs : int;
  betas : float list;
  searches : int;  (* per-epoch search samples *)
  floor_shift : int;
  ceiling_factor : int;
  subrounds : int;
  admission_slack : float;
  surge_tolerance : float;
  burst_period : int;
  burst_active : int;
  stockpile : int;
  probe_num : int;
  probe_den : int;
}

let default_knobs scale =
  (* epochs is the advance count; the chain sees epochs+1 admission
     windows. Keeping windows a multiple of burst_period makes the
     bursty schedule's duty cycle exact (10 windows, 1 active = the
     ISSUE's 10%); epochs=10 would put bursts at windows 0 AND 10 —
     an 18% duty with the cold-start window doubling as a burst. *)
  let n, epochs, betas =
    match scale with
    | Scale.Quick -> (256, 9, [ 0.125 ])
    | Scale.Standard | Scale.Stress -> (512, 19, [ 0.0625; 0.125 ])
    | Scale.Full -> (1024, 19, [ 0.0625; 0.125 ])
  in
  let searches =
    match scale with
    | Scale.Quick -> 240
    | Scale.Standard | Scale.Stress -> 600
    | Scale.Full -> 1500
  in
  {
    n;
    epochs;
    betas;
    searches;
    floor_shift = 4;
    ceiling_factor = 4;
    subrounds = 8;
    admission_slack = 0.25;
    surge_tolerance = 0.1;
    burst_period = 10;
    burst_active = 1;
    stockpile = 1;
    probe_num = 1;
    probe_den = 4;
  }

let strategies k =
  [
    Adversary.Join_schedule.steady;
    Adversary.Join_schedule.bursty ~stockpile:k.stockpile ~period:k.burst_period
      ~active:k.burst_active ();
    Adversary.Join_schedule.probing ~num:k.probe_num ~den:k.probe_den;
  ]

let controller_config k ~epoch_steps = function
  | `Fixed -> Pow.Controller.fixed ~epoch_steps
  | `Competitive ->
      Pow.Controller.competitive ~floor_shift:k.floor_shift
        ~ceiling_factor:k.ceiling_factor ~subrounds:k.subrounds
        ~admission_slack:k.admission_slack ~surge_tolerance:k.surge_tolerance
        ~epoch_steps ()

let controller_label = function
  | `Fixed -> "fixed"
  | `Competitive -> "competitive"

type row = {
  controller : controller_kind;
  strategy : Adversary.Join_schedule.t;
  beta : float;
  good_evals : int;  (* cumulative over all windows *)
  bad_evals : int;
  declined_evals : int;
  vs_fixed : float;
      (* good_evals normalised by the fixed scheme's closed-form bill
         (windows x good x T/2): 1.0 for every Fixed row by
         construction, the competitive saving factor otherwise *)
  mean_latency : float;  (* steps from window start to minted ID *)
  closing_floor : bool;  (* last window closed at the floor price *)
  max_bad_window : int;  (* worst per-window adversarial head-count *)
  min_success : float;  (* worst per-epoch search success *)
  survived : bool;  (* min_success >= 1/2 *)
  wall_s : float;  (* measured; JSON only *)
}

type report = { scale : Scale.t; knobs : knobs; rows : row list }

let run_cell k ~controller ~strategy ~beta stream =
  let t0 = Unix.gettimeofday () in
  let params =
    { Tinygroups.Params.default with Tinygroups.Params.beta }
  in
  let epoch_steps = params.Tinygroups.Params.epoch_steps in
  let cfg =
    {
      (Tinygroups.Epoch.default_config ~n:k.n) with
      Tinygroups.Epoch.params;
      pow =
        Some
          {
            Tinygroups.Epoch.controller =
              controller_config k ~epoch_steps controller;
            schedule = strategy;
          };
    }
  in
  let e =
    Tinygroups.Epoch.init
      ~conditions:
        (Sim.Conditions.make
           ~reliability:(Reliability.Policy.make ~max_retries:1 ())
           ())
      stream cfg
  in
  let windows = ref [] in
  let successes = ref [] in
  let observe () =
    (match Tinygroups.Epoch.pow_last_window e with
    | Some w -> windows := w :: !windows
    | None -> assert false);
    let g = Tinygroups.Epoch.primary e in
    let c = Tinygroups.Group_graph.census g in
    let success =
      if c.Tinygroups.Group_graph.hijacked_ >= c.Tinygroups.Group_graph.total
      then 0.
      else
        (Tinygroups.Robustness.search_success (Prng.Rng.split stream) g
           ~failure:`Majority ~samples:k.searches)
          .Tinygroups.Robustness.success_rate
    in
    successes := success :: !successes
  in
  observe ();
  for _ = 1 to k.epochs do
    Tinygroups.Epoch.advance e;
    observe ()
  done;
  let ctrl =
    match Tinygroups.Epoch.pow_controller e with
    | Some c -> c
    | None -> assert false
  in
  let windows = List.rev !windows in
  let good_evals = Pow.Controller.cumulative_good_spend ctrl in
  let fixed_bill =
    let good =
      k.n - int_of_float (ceil (beta *. float_of_int k.n))
    in
    Pow.Controller.windows ctrl * good * Pow.Controller.fixed_difficulty ctrl
  in
  let min_success = List.fold_left Float.min 1. !successes in
  {
    controller;
    strategy;
    beta;
    good_evals;
    bad_evals = Pow.Controller.cumulative_bad_spend ctrl;
    declined_evals = Pow.Controller.cumulative_declined_spend ctrl;
    vs_fixed = float_of_int good_evals /. float_of_int (max 1 fixed_bill);
    mean_latency =
      (let sum =
         List.fold_left
           (fun acc w -> acc +. w.Pow.Controller.mean_good_latency)
           0. windows
       in
       sum /. float_of_int (max 1 (List.length windows)));
    closing_floor =
      (match List.rev windows with
      | last :: _ ->
          last.Pow.Controller.closing_price
          <= Pow.Controller.floor_difficulty ctrl
      | [] -> false);
    max_bad_window =
      List.fold_left
        (fun acc w -> max acc w.Pow.Controller.admitted_bad)
        0 windows;
    min_success;
    survived = min_success >= 0.5;
    wall_s = Unix.gettimeofday () -. t0;
  }

let run ?(jobs = 1) ?knobs rng scale =
  let k = match knobs with Some k -> k | None -> default_knobs scale in
  let cells =
    List.concat_map
      (fun beta ->
        List.concat_map
          (fun controller ->
            List.map
              (fun strategy -> (controller, strategy, beta))
              (strategies k))
          [ `Fixed; `Competitive ])
      k.betas
  in
  let rows =
    Common.map_configs rng ~jobs cells (fun (controller, strategy, beta) stream ->
        run_cell k ~controller ~strategy ~beta stream)
  in
  { scale; knobs = k; rows }

let to_table r =
  let k = r.knobs in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "E26 (PoW controllers): fixed tau vs resource-competitive \
            admission over %d-epoch chains (n=%d, %s tier)"
           k.epochs k.n (Scale.to_string r.scale))
      ~columns:
        [
          "controller";
          "adversary";
          "beta";
          "good evals";
          "vs fixed";
          "bad evals";
          "declined";
          "latency";
          "floor?";
          "max bad/w";
          "min succ";
          "alive";
        ]
  in
  List.iter
    (fun row ->
      Table.add_row table
        [
          controller_label row.controller;
          Adversary.Join_schedule.label row.strategy;
          Table.ffloat ~digits:4 row.beta;
          Table.fint row.good_evals;
          Table.ffloat ~digits:2 row.vs_fixed;
          Table.fint row.bad_evals;
          Table.fint row.declined_evals;
          Table.ffloat ~digits:1 row.mean_latency;
          (if row.closing_floor then "yes" else "no");
          Table.fint row.max_bad_window;
          Table.fpct row.min_success;
          (if row.survived then "yes" else "NO");
        ])
    r.rows;
  Table.add_note table
    "good evals: cumulative entrance cost the good side paid over all admission";
  Table.add_note table
    "windows; vs fixed normalises by the paper's closed-form bill (windows x";
  Table.add_note table
    "good x T/2), so fixed rows read 1.00. latency = mean steps from window";
  Table.add_note table
    "start to a good participant's minted ID. alive: every epoch kept search";
  Table.add_note table
    "success >= 50% (the E21/E22 collapse notion). The competitive controller";
  Table.add_note table
    "should match fixed within a constant factor under steady attack and beat";
  Table.add_note table
    "it by >= 3x under the 10%-duty-cycle burst (ISSUE acceptance, test-pinned).";
  table

let to_json r =
  let k = r.knobs in
  let row_json row =
    Report.Obj
      [
        ("controller", Report.String (controller_label row.controller));
        ("strategy", Report.String (Adversary.Join_schedule.label row.strategy));
        ("beta", Report.fixed 6 row.beta);
        ("good_evals", Report.Int row.good_evals);
        ("bad_evals", Report.Int row.bad_evals);
        ("declined_evals", Report.Int row.declined_evals);
        ("vs_fixed", Report.fixed 4 row.vs_fixed);
        ("mean_latency_steps", Report.fixed 2 row.mean_latency);
        ("closed_at_floor", Report.Bool row.closing_floor);
        ("max_bad_per_window", Report.Int row.max_bad_window);
        ("min_search_success", Report.fixed 4 row.min_success);
        ("survived", Report.Bool row.survived);
        ("wall_s", Report.fixed 3 row.wall_s);
      ]
  in
  Report.Obj
    [
      ("experiment", Report.String "e26");
      ("scale", Report.String (Scale.to_string r.scale));
      (* The machine behind the wall-clock fields. *)
      ("cores", Report.Int (Domain.recommended_domain_count ()));
      ("n", Report.Int k.n);
      ("epochs", Report.Int k.epochs);
      ("searches_per_epoch", Report.Int k.searches);
      ( "competitive",
        Report.Obj
          [
            ("floor_shift", Report.Int k.floor_shift);
            ("ceiling_factor", Report.Int k.ceiling_factor);
            ("subrounds", Report.Int k.subrounds);
            ("admission_slack", Report.fixed 3 k.admission_slack);
            ("surge_tolerance", Report.fixed 3 k.surge_tolerance);
          ] );
      ( "adversary",
        Report.Obj
          [
            ("burst_period", Report.Int k.burst_period);
            ("burst_active", Report.Int k.burst_active);
            ("stockpile", Report.Int k.stockpile);
            ("probe_price", Report.String (Printf.sprintf "%d/%d" k.probe_num k.probe_den));
          ] );
      ( "notes",
        Report.String
          "good/bad/declined evals are exact controller-ledger integers \
           (deterministic); wall_s is measured. vs_fixed normalises good spend by \
           windows x good x T/2." );
      ("rows", Report.List (List.map row_json r.rows));
    ]

let run_e26 ?(jobs = 1) rng scale = to_table (run ~jobs rng scale)
