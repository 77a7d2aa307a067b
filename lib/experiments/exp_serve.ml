open Idspace
module H = Stats.Histogram.Log

(* E23: the serving tier closed (see exp_serve.mli for the story).
   The experiment is one world run twice — route cache off, then on —
   from copied PRNG streams, so the op/key sequences and the group
   graphs are identical and the only difference is how reads and
   writes find their home group. *)

(* --- sizing ------------------------------------------------------- *)

type sizing = {
  n : int;
  cohorts : int;
  users : int;  (* per cohort *)
  ops_per_user : int;  (* per segment *)
  segments : int;
  names : int;  (* universe size per cohort *)
  churn : int;  (* departures (= joins) per churn boundary *)
  transition_w : int;  (* ops per user counted as transition *)
}

let sizing_of = function
  | Scale.Quick ->
      {
        n = 512;
        cohorts = 4;
        users = 16;
        ops_per_user = 30;
        segments = 3;
        names = 60;
        churn = 12;
        transition_w = 5;
      }
  | Scale.Standard ->
      {
        n = 1024;
        cohorts = 8;
        users = 32;
        ops_per_user = 60;
        segments = 4;
        names = 200;
        churn = 24;
        transition_w = 5;
      }
  | Scale.Full | Scale.Stress ->
      {
        n = 2048;
        cohorts = 8;
        users = 64;
        ops_per_user = 100;
        segments = 6;
        names = 400;
        churn = 48;
        transition_w = 8;
      }

let think_ms = 50.
let timeout_ms = 1000
let zipf = Workload.Resources.Zipf 0.9
let latency_model = Sim.Latency.lognormal_like ~median:40 ~sigma:0.6

(* --- per-cohort state --------------------------------------------- *)

type class_acc = {
  mutable c_ops : int;
  mutable c_ok : int;
  mutable c_msgs : int;
  c_hist : H.t;
}

let fresh_acc () = { c_ops = 0; c_ok = 0; c_msgs = 0; c_hist = H.create () }

type cohort = {
  idx : int;
  mutable store : Kvstore.Store.t;
  mutable clients : Kvstore.Store.client array;
  cmetrics : Sim.Metrics.t;
  conds : Sim.Conditions.active;
  resources : Workload.Resources.t;
  dist : Workload.Resources.dist;
  acc_get : class_acc;
  acc_put : class_acc;
  acc_delete : class_acc;
  steady : H.t;
  transition : H.t;
  mutable dropped : int;
  mutable retried : int;
}

(* Faults at the serving layer: the op's request wave is lost with
   the plan's wildcard drop rate; a reliability budget re-issues it
   after backoff (each retry costs a wasted round trip), and an
   exhausted budget is an SLO-busting timeout. The injector/tracker
   streams depend only on the plan/policy seeds, so both cache modes
   see the same fault schedule. *)
let deliver cohort lat latrng =
  let rt () = Sim.Latency.sample latrng lat + Sim.Latency.sample latrng lat in
  let { Sim.Conditions.injector; tracker } = cohort.conds in
  let budget = Reliability.Tracker.budget tracker in
  let rec go attempt cost =
    if not (Faults.Injector.search_lost injector) then (cost, true)
    else if attempt < budget then begin
      cohort.retried <- cohort.retried + 1;
      let backoff = Reliability.Tracker.next_backoff tracker ~attempt in
      go (attempt + 1) (cost + rt () + backoff)
    end
    else (cost + timeout_ms, false)
  in
  go 0 0

(* One operation end to end: resolve the home (cached or by secure
   walk), run the replicated op, and charge one latency draw per
   routing hop plus the reply, writes paying one more round for the
   replication fan-out. *)
let execute_op cohort client ~in_transition ~op ~name latrng =
  let fault_cost, delivered = deliver cohort latency_model latrng in
  let acc =
    match op with
    | Workload.Traffic.Get -> cohort.acc_get
    | Workload.Traffic.Put -> cohort.acc_put
    | Workload.Traffic.Delete -> cohort.acc_delete
  in
  acc.c_ops <- acc.c_ops + 1;
  let service =
    if not delivered then begin
      cohort.dropped <- cohort.dropped + 1;
      fault_cost
    end
    else begin
      let ok, msgs, write =
        match op with
        | Workload.Traffic.Get -> (
            match Kvstore.Store.get client ~name with
            | Kvstore.Store.Found { messages; _ }
            | Kvstore.Store.Recovered { messages; _ }
            | Kvstore.Store.Not_found { messages } -> (true, messages, false)
            | Kvstore.Store.Corrupted { messages } -> (false, messages, false)
            | Kvstore.Store.Read_blocked _ -> (false, 0, false))
        | Workload.Traffic.Put -> (
            match
              Kvstore.Store.put client ~name ~value:(Printf.sprintf "v-%s" name)
            with
            | Kvstore.Store.Stored { messages; _ } -> (true, messages, true)
            | Kvstore.Store.Write_blocked _ -> (false, 0, false))
        | Workload.Traffic.Delete -> (
            match Kvstore.Store.delete client ~name with
            | Kvstore.Store.Stored { messages; _ } -> (true, messages, true)
            | Kvstore.Store.Write_blocked _ -> (false, 0, false))
      in
      if ok then acc.c_ok <- acc.c_ok + 1;
      acc.c_msgs <- acc.c_msgs + msgs;
      let stats = Kvstore.Store.last_op_stats cohort.store in
      if ok then begin
        let hops = max 1 stats.Kvstore.Store.hops in
        let t = ref fault_cost in
        for _ = 1 to hops do
          t := !t + Sim.Latency.sample latrng latency_model
        done;
        (* the home group's reply *)
        t := !t + Sim.Latency.sample latrng latency_model;
        if write then
          (* replication round inside the home group *)
          t := !t + Sim.Latency.sample latrng latency_model;
        !t
      end
      else
        (* Blocked or corrupted: the client burns its patience on a
           hijacked group before giving up. *)
        fault_cost + timeout_ms
    end
  in
  H.add acc.c_hist (float_of_int service);
  H.add (if in_transition then cohort.transition else cohort.steady)
    (float_of_int service);
  service

(* Per-user clients are re-drawn from the current population each
   segment: epoch turnover replaces every ID, so sessions re-connect
   (and retarget) exactly as real clients would at an epoch switch. *)
let reconnect cohort stream sz =
  let goods =
    Adversary.Population.good_ids
      (Tinygroups.Group_graph.population (Kvstore.Store.graph cohort.store))
  in
  cohort.clients <-
    Array.init sz.users (fun _ ->
        Kvstore.Store.connect cohort.store
          ~id:goods.(Prng.Rng.int stream (Array.length goods)))

let prime cohort =
  for i = 0 to Workload.Resources.count cohort.resources - 1 do
    ignore
      (Kvstore.Store.put cohort.clients.(0)
         ~name:(Workload.Resources.name cohort.resources i)
         ~value:"v0")
  done

let run_segment cohort stream sz ~segment ~graph =
  if not (Kvstore.Store.graph cohort.store == graph) then begin
    cohort.store <- Kvstore.Store.rehome cohort.store graph
  end;
  reconnect cohort stream sz;
  if segment = 0 then prime cohort;
  let spec =
    {
      Workload.Traffic.users = sz.users;
      ops_per_user = sz.ops_per_user;
      think_ms;
      mix = Workload.Traffic.default_mix;
      dist = cohort.dist;
    }
  in
  let stats =
    Workload.Traffic.run (Prng.Rng.split stream) spec
      ~execute:(fun ~user ~seq ~now:_ ~op ~key latrng ->
        let name = Workload.Resources.name cohort.resources key in
        let in_transition = segment > 0 && seq < sz.transition_w in
        execute_op cohort cohort.clients.(user) ~in_transition ~op ~name latrng)
  in
  stats.Workload.Traffic.makespan_ms

(* --- the report --------------------------------------------------- *)

type class_report = {
  ops : int;
  ok : int;
  msgs : int;
  p50 : float;
  p99 : float;
  p999 : float;
}

type mode_report = {
  cache : bool;
  get_ : class_report;
  put_ : class_report;
  delete_ : class_report;
  steady_ : class_report;
  transition_ : class_report;
  elapsed_ms : int;
  ops_per_sec : float;
  cache_hits : int;
  cache_misses : int;
  cache_invalidations : int;
  hit_rate : float;
  dropped : int;
  retried : int;
}

type report = {
  scale : Scale.t;
  sizing : sizing;
  conditions_desc : string;
  modes : mode_report list;
}

let quantiles h =
  if H.total h = 0 then (0., 0., 0.)
  else (H.quantile h 0.5, H.quantile h 0.99, H.quantile h 0.999)

let class_report_of_hist h =
  let p50, p99, p999 = quantiles h in
  { ops = H.total h; ok = H.total h; msgs = 0; p50; p99; p999 }

let merge_accs accs =
  let m = fresh_acc () in
  let hist =
    List.fold_left
      (fun acc a ->
        m.c_ops <- m.c_ops + a.c_ops;
        m.c_ok <- m.c_ok + a.c_ok;
        m.c_msgs <- m.c_msgs + a.c_msgs;
        H.merge acc a.c_hist)
      m.c_hist accs
  in
  let p50, p99, p999 = quantiles hist in
  { ops = m.c_ops; ok = m.c_ok; msgs = m.c_msgs; p50; p99; p999 }

let merge_hists hs = List.fold_left H.merge (H.create ()) hs

(* One full serving run at a fixed cache mode. [wrng] must be a copy
   of the same stream for both modes: every world draw (epoch worlds,
   churn victims, newcomer IDs) comes from it in the same order. *)
let run_mode ~jobs ~conditions ~cache wrng sz =
  let epoch_cfg = Tinygroups.Epoch.default_config ~n:sz.n in
  let epochs = Tinygroups.Epoch.init ~conditions (Prng.Rng.split wrng) epoch_cfg in
  let serve_oracle = Hashing.Oracle.make ~system_key:"serve" ~label:"h-serve" in
  let beta = epoch_cfg.Tinygroups.Epoch.params.Tinygroups.Params.beta in
  let live = ref (Tinygroups.Epoch.primary epochs) in
  let boundary_metrics = Sim.Metrics.create () in
  let cohorts =
    List.init sz.cohorts (fun idx ->
        let resources =
          Workload.Resources.synthetic ~system_key:"serve"
            ~count:sz.names
            ~prefix:(Printf.sprintf "c%d-" idx)
        in
        let cmetrics = Sim.Metrics.create () in
        let seed off = Int64.of_int ((1000 * (idx + 1)) + off) in
        let conds =
          Sim.Conditions.activate ~metrics:cmetrics
            {
              Sim.Conditions.faults =
                Option.map
                  (fun p -> Faults.Plan.with_seed p (seed 1))
                  conditions.Sim.Conditions.faults;
              reliability =
                Option.map
                  (fun p -> Reliability.Policy.with_seed p (seed 2))
                  conditions.Sim.Conditions.reliability;
            }
        in
        {
          idx;
          store =
            Kvstore.Store.create ~metrics:cmetrics ~route_cache:cache
              ~system_key:"serve" !live;
          clients = [||];
          cmetrics;
          conds;
          resources;
          dist = Workload.Resources.distribution resources zipf;
          acc_get = fresh_acc ();
          acc_put = fresh_acc ();
          acc_delete = fresh_acc ();
          steady = H.create ();
          transition = H.create ();
          dropped = 0;
          retried = 0;
        })
  in
  let elapsed = ref 0 in
  for segment = 0 to sz.segments - 1 do
    (* Boundaries alternate live churn with a full epoch turnover —
       the two graph-change events a serving tier must ride out. *)
    if segment > 0 then begin
      if segment mod 2 = 1 then begin
        let leaders = Tinygroups.Group_graph.leaders !live in
        let victims = ref [] and picked = ref 0 in
        while !picked < sz.churn do
          let v = leaders.(Prng.Rng.int wrng (Array.length leaders)) in
          if not (List.exists (Point.equal v) !victims) then begin
            victims := v :: !victims;
            incr picked
          end
        done;
        let g, _ = Tinygroups.Dynamic.depart_many !live ~ids:!victims in
        let newcomers =
          List.init sz.churn (fun _ ->
              (Point.random wrng, Prng.Rng.bernoulli wrng beta))
        in
        let g, _ =
          Tinygroups.Dynamic.join_many (Prng.Rng.split wrng) boundary_metrics g
            ~old_pair:(Tinygroups.Epoch.old_pair epochs)
            ~member_oracle:serve_oracle ~ids:newcomers
        in
        live := g
      end
      else begin
        Tinygroups.Epoch.advance epochs;
        live := Tinygroups.Epoch.primary epochs
      end
    end;
    let seg_makespans =
      Common.map_configs (Prng.Rng.split wrng) ~jobs cohorts (fun cohort stream ->
          run_segment cohort stream sz ~segment ~graph:!live)
    in
    elapsed := !elapsed + List.fold_left max 0 seg_makespans
  done;
  let metrics = Sim.Metrics.create () in
  List.iter (fun c -> Sim.Metrics.merge metrics c.cmetrics) cohorts;
  let hits = Sim.Metrics.get metrics Sim.Metrics.kv_route_cache_hit in
  let misses = Sim.Metrics.get metrics Sim.Metrics.kv_route_cache_miss in
  let get_ = merge_accs (List.map (fun c -> c.acc_get) cohorts) in
  let put_ = merge_accs (List.map (fun c -> c.acc_put) cohorts) in
  let delete_ = merge_accs (List.map (fun c -> c.acc_delete) cohorts) in
  let total_ops = get_.ops + put_.ops + delete_.ops in
  {
    cache;
    get_;
    put_;
    delete_;
    steady_ = class_report_of_hist (merge_hists (List.map (fun c -> c.steady) cohorts));
    transition_ =
      class_report_of_hist (merge_hists (List.map (fun c -> c.transition) cohorts));
    elapsed_ms = !elapsed;
    ops_per_sec =
      (if !elapsed = 0 then 0.
       else 1000. *. float_of_int total_ops /. float_of_int !elapsed);
    cache_hits = hits;
    cache_misses = misses;
    cache_invalidations =
      Sim.Metrics.get metrics Sim.Metrics.kv_route_cache_invalidated;
    hit_rate =
      (if hits + misses = 0 then 0.
       else float_of_int hits /. float_of_int (hits + misses));
    dropped = List.fold_left (fun a (c : cohort) -> a + c.dropped) 0 cohorts;
    retried = List.fold_left (fun a (c : cohort) -> a + c.retried) 0 cohorts;
  }

let run ?(jobs = 1) ?(conditions = Sim.Conditions.none) rng scale =
  let sz = sizing_of scale in
  let world = Prng.Rng.split rng in
  let modes =
    List.map
      (fun cache -> run_mode ~jobs ~conditions ~cache (Prng.Rng.copy world) sz)
      [ false; true ]
  in
  { scale; sizing = sz; conditions_desc = Sim.Conditions.describe conditions; modes }

(* --- rendering ---------------------------------------------------- *)

let to_table r =
  let sz = r.sizing in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "E23 (serving): closed-loop KV serving under churn — route cache \
            ablation, n=%d, %d cohorts x %d users x %d ops x %d segments"
           sz.n sz.cohorts sz.users sz.ops_per_user sz.segments)
      ~columns:
        [
          "cache";
          "class";
          "ops";
          "ok";
          "p50 ms";
          "p99 ms";
          "p999 ms";
          "msgs/op";
          "ops/s";
          "hit rate";
        ]
  in
  List.iter
    (fun m ->
      let mode = if m.cache then "on" else "off" in
      let row label (c : class_report) =
        Table.add_row table
          [
            mode;
            label;
            Table.fint c.ops;
            (if c.ops = 0 then "-"
             else Table.fpct (float_of_int c.ok /. float_of_int c.ops));
            Table.ffloat ~digits:0 c.p50;
            Table.ffloat ~digits:0 c.p99;
            Table.ffloat ~digits:0 c.p999;
            (if c.ops = 0 then "-"
             else Table.ffloat ~digits:1 (float_of_int c.msgs /. float_of_int c.ops));
            Table.ffloat ~digits:1 m.ops_per_sec;
            Table.fpct m.hit_rate;
          ]
      in
      row "get" m.get_;
      row "put" m.put_;
      row "delete" m.delete_;
      row "steady" m.steady_;
      row "transition" m.transition_)
    r.modes;
  Table.add_note table
    "transition = each user's first ops after a churn or epoch boundary; the";
  Table.add_note table
    "cache-on spike there is the post-rehome cold cache refilling (invalidation";
  Table.add_note table
    (Printf.sprintf "is a fresh store per epoch; %s invalidations in the cache-on run)."
       (Table.fint
          (List.fold_left
             (fun acc m -> if m.cache then m.cache_invalidations else acc)
             0 r.modes)));
  Table.add_note table (Printf.sprintf "conditions: %s" r.conditions_desc);
  table

let latencies (c : class_report) =
  [
    ("p50_ms", Report.fixed 1 c.p50);
    ("p99_ms", Report.fixed 1 c.p99);
    ("p999_ms", Report.fixed 1 c.p999);
  ]

let class_json (c : class_report) =
  Report.Obj
    (("ops", Report.Int c.ops) :: ("ok", Report.Int c.ok)
    :: ("messages", Report.Int c.msgs) :: latencies c)

(* The steady/transition rows come from latency histograms alone:
   their [ok] and [msgs] are placeholders, so they stay out. *)
let window_json (c : class_report) = Report.Obj (("ops", Report.Int c.ops) :: latencies c)

let to_json r =
  let sz = r.sizing in
  let mode_json m =
    Report.Obj
      [
        ("route_cache", Report.Bool m.cache);
        ( "classes",
          Report.Obj
            [
              ("get", class_json m.get_);
              ("put", class_json m.put_);
              ("delete", class_json m.delete_);
            ] );
        ("steady", window_json m.steady_);
        ("transition", window_json m.transition_);
        ("virtual_elapsed_ms", Report.Int m.elapsed_ms);
        ("ops_per_sec", Report.fixed 2 m.ops_per_sec);
        ("route_cache_hits", Report.Int m.cache_hits);
        ("route_cache_misses", Report.Int m.cache_misses);
        ("route_cache_invalidations", Report.Int m.cache_invalidations);
        ("hit_rate", Report.fixed 4 m.hit_rate);
        ("ops_dropped", Report.Int m.dropped);
        ("ops_retried", Report.Int m.retried);
      ]
  in
  Report.Obj
    [
      ("experiment", Report.String "e23");
      ("scale", Report.String (Scale.to_string r.scale));
      ("n", Report.Int sz.n);
      ("cohorts", Report.Int sz.cohorts);
      ("users_per_cohort", Report.Int sz.users);
      ("ops_per_user_per_segment", Report.Int sz.ops_per_user);
      ("segments", Report.Int sz.segments);
      ("conditions", Report.String r.conditions_desc);
      ("modes", Report.List (List.map mode_json r.modes));
    ]

let run_e23 ?(jobs = 1) ?(conditions = Sim.Conditions.none) rng scale =
  to_table (run ~jobs ~conditions rng scale)
