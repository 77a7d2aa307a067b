open Idspace

(* The structural rows need IDs from the built graph, so each config
   describes how to derive its protocol-side plan; the epoch side
   only carries rate-based plans (a full-turnover epoch mints fresh
   IDs every advance, so ID-pinned cuts and crashes cannot span
   epochs). *)
type proto_spec =
  | Rates of Faults.Plan.t
  | Partition_groups of float * int  (* leader fraction cut off, heal ms *)
  | Crash_members of float * int * int  (* member fraction, down ms, up ms *)

type config = {
  label : string;
  proto : proto_spec;
  epoch_plan : Faults.Plan.t option;  (* None: row skips the epoch side *)
  plan_seed : int64;  (* base seed of this row's fault schedules *)
}

let distinct_members g =
  (* Sized for roughly one distinct member per node; [seen] is only
     probed, never iterated, so capacity cannot affect the output. *)
  let seen = Hashtbl.create (2 * Tinygroups.Group_graph.n_groups g) in
  let out = ref [] in
  (* Ring iteration order: the crash rows below take the first k
     members in first-seen order, which is digest-relevant. *)
  Tinygroups.Group_graph.iter_groups
    (fun _ (grp : Tinygroups.Group.t) ->
      Array.iter
        (fun m ->
          if not (Hashtbl.mem seen m) then begin
            Hashtbl.add seen m ();
            out := m :: !out
          end)
        grp.Tinygroups.Group.members)
    g;
  List.rev !out

let proto_plan spec g ~seed =
  let plan =
    match spec with
    | Rates p -> p
    | Partition_groups (fraction, heal) ->
        (* Cut a contiguous arc of the ID ring off from the rest of
           the world, healing mid-run: groups led from inside the arc
           go dark, and every group that drew an arc member loses its
           copies until the heal. (Cutting whole member sets instead
           would sever almost every ID — each ID serves in many
           groups — leaving no world to measure.) *)
        let leaders = Tinygroups.Group_graph.leaders g in
        let k = max 1 (int_of_float (fraction *. float_of_int (Array.length leaders))) in
        let side_a = Array.to_list (Array.sub leaders 0 k) in
        Faults.Plan.partition ~side_a ~from_time:0 ~heal_time:heal ()
    | Crash_members (fraction, down, up) ->
        let members = distinct_members g in
        let k =
          max 1 (int_of_float (fraction *. float_of_int (List.length members)))
        in
        List.filteri (fun i _ -> i < k) members
        |> List.fold_left
             (fun acc id ->
               Faults.Plan.(acc ++ crash_of ~id ~down_from:down ~recover_at:up ()))
             Faults.Plan.none
  in
  Faults.Plan.with_seed plan seed

let default_configs scale =
  let u = Faults.Plan.uniform in
  let base =
    [
      ("none", Rates Faults.Plan.none, Some Faults.Plan.none);
      ("drop 0.5%", Rates (u ~drop:0.005 ()), Some (u ~drop:0.005 ()));
      ("drop 5%", Rates (u ~drop:0.05 ()), Some (u ~drop:0.05 ()));
      ("drop 25%", Rates (u ~drop:0.25 ()), Some (u ~drop:0.25 ()));
      ( "dup 10% delay 10%",
        Rates (u ~duplicate:0.1 ~delay:0.1 ~delay_ms:(20, 200) ()),
        Some (u ~duplicate:0.1 ~delay:0.1 ~delay_ms:(20, 200) ()) );
      ("partition 1/8 heals", Partition_groups (0.125, 150), None);
      ("crash 10% [0,150)ms", Crash_members (0.1, 0, 150), None);
    ]
  in
  let extra =
    [
      ("drop 2%", Rates (u ~drop:0.02 ()), Some (u ~drop:0.02 ()));
      ("drop 10%", Rates (u ~drop:0.1 ()), Some (u ~drop:0.1 ()));
      ("reorder 20%", Rates (u ~reorder:0.2 ~reorder_ms:300 ()), Some Faults.Plan.none);
    ]
  in
  match scale with Scale.Quick -> base | _ -> base @ extra

let run_e21 ?(jobs = 1) ?(conditions = Sim.Conditions.none) rng scale =
  let { Sim.Conditions.faults; reliability } = conditions in
  let n = match scale with Scale.Quick -> 512 | _ -> 1024 in
  let searches =
    match scale with
    | Scale.Quick -> 40
    | Scale.Standard -> 120
    | Scale.Full | Scale.Stress -> 300
  in
  let epochs = Scale.epochs scale in
  let epoch_n = Scale.dynamic_n scale in
  let beta = 0.05 in
  let configs =
    let quads =
      match faults with
      | None ->
          List.map (fun (l, p, e) -> (l, p, e, None)) (default_configs scale)
      | Some plan ->
          (* The caller's plan keeps its own seed (--fault-seed), so
             the printed describe line replays this exact row. *)
          [
            ("baseline (no faults)", Rates Faults.Plan.none, Some Faults.Plan.none, None);
            (Faults.Plan.describe plan, Rates plan, Some plan, Some plan.Faults.Plan.seed);
          ]
    in
    List.mapi
      (fun i (label, proto, epoch_plan, seed) ->
        {
          label;
          proto;
          epoch_plan;
          plan_seed = Option.value seed ~default:(Int64.of_int (1 + (1000 * i)));
        })
      quads
  in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "E21 (fault injection): search success and epoch robustness vs environmental \
            faults, n=%d, %d searches, epoch chain n=%d x %d epochs, beta=%.2f"
           n searches epoch_n epochs beta)
      ~columns:
        [
          "fault plan";
          "resolved";
          "hijacked";
          "timeout";
          "msgs";
          "flt inj";
          "flt supp";
          "healed";
          "ep hij+conf";
          "ep success";
        ]
  in
  let latency = Sim.Latency.lognormal_like ~median:40 ~sigma:0.6 in
  let rows =
    Common.map_configs rng ~jobs configs (fun cfg stream ->
        let fm = Sim.Metrics.create () in
        (* Protocol side: E19's world (colluding Byzantine members)
           plus this row's environmental plan. *)
        let _, g = Common.build_tiny stream ~n ~beta () in
        let leaders = Tinygroups.Group_graph.leaders g in
        let ok = ref 0 and hij = ref 0 and timeout = ref 0 and msgs = ref 0 in
        for i = 0 to searches - 1 do
          let src = leaders.(Prng.Rng.int stream (Array.length leaders)) in
          let key = Point.random stream in
          let plan =
            proto_plan cfg.proto g ~seed:(Int64.add cfg.plan_seed (Int64.of_int i))
          in
          let reliability =
            Option.map
              (fun p ->
                Reliability.Policy.with_seed p
                  (Int64.add p.Reliability.Policy.seed (Int64.of_int i)))
              reliability
          in
          let o =
            Protocol.Secure_search.run_search (Prng.Rng.split stream) g ~latency
              ~behaviour:Protocol.Secure_search.Colluding ~src ~key
              ~conditions:(Sim.Conditions.make ~faults:plan ?reliability ())
              ~metrics:fm ()
          in
          msgs := !msgs + o.Protocol.Secure_search.messages;
          match o.Protocol.Secure_search.result with
          | `Resolved _ -> incr ok
          | `Hijacked _ -> incr hij
          | `Timeout -> incr timeout
        done;
        (* Epoch side: E4's world under the same rate plan (epoch
           clocks, see Exp_dynamic.run_epochs). *)
        let epoch_cells =
          match cfg.epoch_plan with
          | None -> [ "-"; "-" ]
          | Some plan ->
              let plan = Faults.Plan.with_seed plan cfg.plan_seed in
              let chain =
                Exp_dynamic.run_epochs
                  ~conditions:(Sim.Conditions.make ~faults:plan ?reliability ())
                  (Prng.Rng.split stream)
                  ~mode:Tinygroups.Epoch.Paired ~n:epoch_n ~beta ~epochs
                  ~searches:(Scale.searches scale / 2)
              in
              let _, (c : Tinygroups.Group_graph.census), success =
                List.nth chain (List.length chain - 1)
              in
              [
                Table.fint (c.Tinygroups.Group_graph.hijacked_ + c.Tinygroups.Group_graph.confused_);
                Table.fpct success;
              ]
        in
        let s = Sim.Metrics.snapshot fm in
        [
          cfg.label;
          Table.fint !ok;
          Table.fint !hij;
          Table.fint !timeout;
          Table.ffloat ~digits:0 (float_of_int !msgs /. float_of_int searches);
          Table.fint (Sim.Metrics.found s Sim.Metrics.fault_injected);
          Table.fint (Sim.Metrics.found s Sim.Metrics.fault_suppressed);
          Table.fint (Sim.Metrics.found s Sim.Metrics.fault_healed);
        ]
        @ epoch_cells)
  in
  List.iter (Table.add_row table) rows;
  (match reliability with
  | Some p when not (Reliability.Policy.is_zero p) ->
      Table.add_note table ("Retry policy active: " ^ Reliability.Policy.describe p)
  | _ -> ());
  Table.add_note table
    "Fault schedules replay from their seeds alone: row i's plans are seeded";
  Table.add_note table
    "1+1000i (+ the search index per search); --fault-seed overrides the base.";
  Table.add_note table
    "The zero-rate row anchors the ablation: it reproduces the fault-free E19/E4";
  Table.add_note table
    "worlds byte-for-byte (test_faults.ml), so later rows isolate the environmental";
  Table.add_note table
    "adversary. Epoch columns use rate plans only: full turnover remints every ID,";
  Table.add_note table
    "so ID-pinned cuts and crashes apply within one network run (ms clocks).";
  Table.add_note table
    "The epoch chain has a sharp percolation threshold: confused groups poison the";
  Table.add_note table
    "next epoch's construction routes, so sustained loss above a small epsilon";
  Table.add_note table
    "compounds to collapse (the retry-free substrate later retry PRs measure against).";
  table
