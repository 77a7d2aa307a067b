(* The three benchmark workloads. Each has a set-up (everything before
   the first timed call) and a timed phase that drives the libraries'
   public functions through [Span.call], checks their outputs, and
   returns its metrics. bench.ml repeats set-up and phase several times
   in a run, from the same streams.

   Metric values a workload does not know about (the set-up time, RSS,
   GC and tracing figures) are added by bench.ml. *)

open Idspace
module Rng = Prng.Rng
module G = Tinygroups.Group_graph
module M = Sim.Metrics

(* --- span names ---------------------------------------------------- *)

let sp_generate = Span.register "adversary.generate"
let sp_overlay_make = Span.register "overlay.make"
let sp_build_direct = Span.register "group_graph.build_direct"
let sp_warm = Span.register "overlay.warm"
let sp_depart_many = Span.register "dynamic.depart_many"
let sp_old_pair = Span.register "membership.make_old_pair"
let sp_join_many = Span.register "dynamic.join_many"
let sp_search = Span.register "secure_route.search"
let sp_epoch_init = Span.register "epoch.init"
let sp_advance = Span.register "epoch.advance"
let sp_propagate = Span.register "randstring.propagate"
let sp_probe = Span.register "robustness.search_success"
let sp_store_create = Span.register "kvstore.create"
let sp_connect = Span.register "kvstore.connect"
let sp_prime = Span.register "kvstore.prime"
let sp_get = Span.register "kvstore.get"
let sp_put = Span.register "kvstore.put"
let sp_delete = Span.register "kvstore.delete"
let sp_rehome = Span.register "kvstore.rehome"
let sp_traffic = Span.register "workload.traffic"

type result = {
  attempted : int;
  samples : (string * float list) list;
      (* ops_per_s and reads_per_s, each over short stretches of work *)
  layers : (string * float) list;
  exact : (string * float) list;
      (* virtual quantities: a pure function of the seed and size *)
  failures : string list;  (* output checks that did not hold *)
}

type 'st t = {
  params : (string * string) list;  (* every workload parameter, for provenance *)
  warmups : int;
      (* untimed set-up + phase repetitions first, so that the heap has
         grown to its working size before anything is timed *)
  reps : int;  (* set-up + phase repetitions per run, at least 2 *)
  setups_per_rep : int;  (* timed set-ups before each phase, the last one feeding it *)
  setup : Rng.t -> 'st * (string * float) list;
  phase : 'st -> Rng.t -> result;
}

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b
let per_s n ns = if ns <= 0 then 0. else float_of_int n /. Span.seconds ns
let mib bytes = bytes /. 1048576.

let quantile l q =
  let a = Array.of_list l in
  Array.sort compare a;
  if a = [||] then 0. else a.(Span.rank (Array.length a) q - 1)

let median samples = quantile samples 0.5

(* On a shared host, memory contention from other tenants slows
   random-access work by up to 2x in phases of a few seconds, while
   cache-resident work keeps its speed. Rates are therefore sampled over
   many short stretches of work and reported as the [fast] quantile
   (nearest rank) of the samples, the speed of the fastest tenth of the
   stretches: those the contention spared. It moves with the program's
   own work and far less with the host than the median does. *)
let fast = 0.9

(* Nearest-rank percentile of [total] integers given as counts per
   value, equal to indexing the sorted sample. *)
let histogram_percentile counts total q =
  let rank = Span.rank total q in
  let rec go v seen =
    let seen = seen + counts.(v) in
    if seen >= rank || v = Array.length counts - 1 then v else go (v + 1) seen
  in
  if total = 0 then 0 else go 0 0

let check failures cond fmt =
  Printf.ksprintf (fun msg -> if not cond then failures := msg :: !failures) fmt

let beta = 0.05
let member_oracle = Hashing.Oracle.make ~system_key:"tinygroups-repro" ~label:"h1"

(* A point present in none of the given rings nor in [taken]. *)
let rec fresh_point stream rings taken =
  let p = Point.random stream in
  if List.exists (Ring.mem p) rings || Hashtbl.mem taken (Point.to_key p) then
    fresh_point stream rings taken
  else begin
    Hashtbl.add taken (Point.to_key p) ();
    p
  end

(* E23's per-hop latency model: one draw per routing hop plus the home
   group's reply, writes paying one more round for replication; a
   blocked or corrupted op burns the client's timeout. *)
let latency_model = Sim.Latency.lognormal_like ~median:40 ~sigma:0.6
let timeout_ms = 1000

let virtual_latency latrng ~ok ~hops ~write =
  if not ok then timeout_ms
  else begin
    let t = ref 0 in
    for _ = 1 to max 1 hops + 1 + if write then 1 else 0 do
      t := !t + Sim.Latency.sample latrng latency_model
    done;
    !t
  end

(* ================================================================== *)
(* churn-2e17                                                          *)
(* ================================================================== *)

module Churn = struct
  (* [rounds] per phase; [lookups] per round, read after the round's
     join_many. *)
  type size = { n : int; reps : int; rounds : int; batch : int; lookups : int }

  let size ~tiny ~seconds =
    if tiny then { n = 2048; reps = 2; rounds = 2; batch = 16; lookups = 100 }
    else { n = 1 lsl 17; reps = max 2 (seconds / 10); rounds = 3; batch = 512; lookups = 4000 }

  let params = { Tinygroups.Params.default with Tinygroups.Params.beta }

  (* Lookups per rate sample of the read phase. *)
  let read_block = 100

  let setup sz stream =
    let pop =
      Span.call sp_generate (fun () ->
          Adversary.Population.generate (Rng.split stream) ~n:sz.n ~beta
            ~strategy:Adversary.Placement.Uniform)
    in
    let ov =
      Span.call sp_overlay_make (fun () -> Overlay.Chord.make (Adversary.Population.ring pop))
    in
    let a0 = Gc.allocated_bytes () in
    let g =
      Span.call sp_build_direct (fun () ->
          G.build_direct ~params ~population:pop ~overlay:ov ~member_oracle ())
    in
    let build_alloc = Gc.allocated_bytes () -. a0 in
    Span.call sp_warm (fun () ->
        Ring.iter (fun p -> ignore (ov.Overlay.Overlay_intf.neighbors p)) ov.Overlay.Overlay_intf.ring;
        ignore (G.blue_leaders g));
    ( g,
      [
        ("adversary.generate_s", Span.seconds Span.last_ns.(sp_generate));
        ("overlay.make_s", Span.seconds Span.last_ns.(sp_overlay_make));
        ("group_graph.build_direct_s", Span.seconds Span.last_ns.(sp_build_direct));
        ("group_graph.build_alloc_mb", mib build_alloc);
        ("overlay.warm_s", Span.seconds Span.last_ns.(sp_warm));
      ] )

  let phase sz g0 stream =
    let failures = ref [] in
    let metrics = M.create () in
    let g = ref g0 in
    let churn_msgs = ref 0 and searches = ref 0 and updates = ref 0 and affected = ref 0 in
    let rebuilds = ref 0 and join_alloc = ref 0. and round_rates = ref [] in
    let ok = ref 0 and read_msgs = ref 0 and hops = ref 0 and alloc_words = ref 0. in
    let block_rates = ref [] and block_ns = ref 0 in
    (* Reads on a rebuilt overlay, its neighbour memo still cold. *)
    let read_phase g =
      let leaders = G.leaders g in
      for i = 1 to sz.lookups do
        let src = leaders.(Rng.int stream (Array.length leaders)) in
        let key = Point.random stream in
        let w0 = Gc.minor_words () in
        let o =
          Span.call sp_search (fun () -> Tinygroups.Secure_route.search g ~failure:`Majority ~src ~key)
        in
        alloc_words := !alloc_words +. (Gc.minor_words () -. w0);
        block_ns := !block_ns + Span.last_ns.(sp_search);
        if i mod read_block = 0 then begin
          block_rates := per_s read_block !block_ns :: !block_rates;
          block_ns := 0
        end;
        if Tinygroups.Secure_route.succeeded o then incr ok;
        read_msgs := !read_msgs + o.Tinygroups.Secure_route.messages;
        hops := !hops + List.length o.Tinygroups.Secure_route.group_path
      done
    in
    for round = 1 to sz.rounds do
      let before = !g in
      let leaders = G.leaders before in
      let victims =
        Array.to_list
          (Array.map (fun i -> leaders.(i))
             (Rng.sample_without_replacement stream sz.batch (Array.length leaders)))
      in
      let g_dep, dcost = Span.call sp_depart_many (fun () -> Tinygroups.Dynamic.depart_many before ~ids:victims) in
      (* depart_many takes no metrics sink: its one rebuild shows as a
         fresh overlay over the shrunk ring. *)
      let ov_dep = G.overlay g_dep in
      if ov_dep != G.overlay before
         && Ring.cardinal ov_dep.Overlay.Overlay_intf.ring = sz.n - sz.batch
      then incr rebuilds
      else check failures false "churn round %d: depart_many did not rebuild its overlay once" round;
      let old_pair =
        Span.call sp_old_pair (fun () ->
            Tinygroups.Membership.make_old_pair ~failure:`Majority before None)
      in
      let taken = Hashtbl.create (2 * sz.batch) in
      let rings = [ Adversary.Population.ring (G.population before) ] in
      let newcomers =
        List.init sz.batch (fun _ ->
            let id = fresh_point stream rings taken in
            (id, Rng.bernoulli stream beta))
      in
      let rb0 = M.get metrics M.overlay_rebuilds in
      let a0 = Gc.allocated_bytes () in
      let g_new, jcost =
        Span.call sp_join_many (fun () ->
            Tinygroups.Dynamic.join_many (Rng.split stream) metrics g_dep ~old_pair
              ~member_oracle ~ids:newcomers)
      in
      join_alloc := !join_alloc +. (Gc.allocated_bytes () -. a0);
      round_rates :=
        per_s (2 * sz.batch) (Span.last_ns.(sp_depart_many) + Span.last_ns.(sp_join_many))
        :: !round_rates;
      let rb = M.get metrics M.overlay_rebuilds - rb0 in
      rebuilds := !rebuilds + rb;
      check failures (rb = 1) "churn round %d: join_many rebuilt the overlay %d times, want 1" round rb;
      check failures (G.n_groups g_new = sz.n) "churn round %d: n_groups %d after the round, want %d"
        round (G.n_groups g_new) sz.n;
      let open Tinygroups.Dynamic in
      churn_msgs := !churn_msgs + dcost.messages + jcost.messages;
      searches := !searches + jcost.searches;
      updates := !updates + dcost.member_updates + jcost.member_updates;
      affected := !affected + dcost.affected_groups + jcost.affected_groups;
      g := g_new;
      read_phase g_new
    done;
    let events = 2 * sz.batch * sz.rounds in
    let lookups = sz.lookups * sz.rounds in
    let lone = M.get metrics M.group_lone_leader in
    let failed_ops = lone + (lookups - !ok) in
    let exact =
      [
        ("msgs_per_op", ratio !churn_msgs events);
        ("msgs_per_read", ratio !read_msgs lookups);
        ("success_rate", 1. -. ratio failed_ops ((sz.batch * sz.rounds) + lookups));
        ("secure_route.hops_mean", ratio !hops lookups);
        ("dynamic.join_searches", float_of_int !searches);
        ("dynamic.member_updates", float_of_int !updates);
        ("dynamic.affected_groups", float_of_int !affected);
        ("overlay.rebuilds", float_of_int !rebuilds);
        ("group.lone_leader", float_of_int lone);
      ]
    in
    {
      attempted = events + lookups;
      samples = [ ("ops_per_s", !round_rates); ("reads_per_s", !block_rates) ];
      layers =
        [
          ("dynamic.depart_many_s", Span.total_s sp_depart_many);
          ("dynamic.join_many_s", Span.total_s sp_join_many);
          ("dynamic.join_alloc_mb", mib !join_alloc);
          ("secure_route.search_count", float_of_int lookups);
          ( "secure_route.alloc_bytes_per_op",
            !alloc_words *. float_of_int (Sys.word_size / 8) /. float_of_int lookups );
        ];
      exact;
      failures = !failures;
    }

  let workload ~tiny ~seconds =
    let sz = size ~tiny ~seconds in
    {
      params =
        [
          ("n", string_of_int sz.n);
          ("beta", string_of_float beta);
          ("overlay", "chord");
          ("params", "Params.default");
          ("reps", string_of_int sz.reps);
          ("rounds_per_rep", string_of_int sz.rounds);
          ("batch", string_of_int sz.batch);
          ("bad_fraction_of_newcomers", string_of_float beta);
          ("failure", "Majority");
          ("lookups_per_round", string_of_int sz.lookups);
        ];
      warmups = 0;
      reps = sz.reps;
      setups_per_rep = 1;
      setup = setup sz;
      phase = phase sz;
    }
end

(* ================================================================== *)
(* epoch-2048                                                          *)
(* ================================================================== *)

module Epochs = struct
  type size = { n : int; reps : int; epochs : int; probes : int; samples : int; jobs : int }

  (* [epochs] per phase; [probes] search_success calls of [samples]
     searches per epoch. [jobs] is 1: on a host of two shared cores, two
     domains made the epoch rate switch between two levels 1.35x apart
     from run to run (ten-seed spread 0.25 of the median, against 0.04
     at one domain). Transitions still take the fork/merge path of
     [Epoch.build_next], without a pool. *)
  let size ~tiny ~seconds =
    if tiny then { n = 256; reps = 2; epochs = 2; probes = 2; samples = 25; jobs = 1 }
    else { n = 2048; reps = max 2 (seconds / 4); epochs = 3; probes = 5; samples = 2000; jobs = 1 }

  (* The masked variant of bench/epoch.ml. *)
  let conditions =
    Sim.Conditions.make
      ~faults:(Faults.Plan.with_seed (Faults.Plan.uniform ~drop:0.15 ()) 42L)
      ~reliability:(Reliability.Policy.make ~seed:42L ~max_retries:8 ~circuit_threshold:4 ())
      ()

  let config sz =
    let base = Tinygroups.Epoch.default_config ~n:sz.n in
    let epoch_steps = base.Tinygroups.Epoch.params.Tinygroups.Params.epoch_steps in
    {
      base with
      Tinygroups.Epoch.build_jobs = sz.jobs;
      pow =
        Some
          {
            Tinygroups.Epoch.controller = Pow.Controller.competitive ~epoch_steps ();
            schedule = Adversary.Join_schedule.steady;
          };
    }

  let setup sz stream =
    let eh =
      Span.call sp_epoch_init (fun () ->
          Tinygroups.Epoch.init ~conditions (Rng.split stream) (config sz))
    in
    (eh, [ ("epoch.init_s", Span.seconds Span.last_ns.(sp_epoch_init)) ])

  let counters =
    [
      ("membership.msgs", M.msg_membership);
      ("reliability.retry_attempted", M.retry_attempted);
      ("reliability.retry_exhausted", M.retry_exhausted);
      ("faults.suppressed", M.fault_suppressed);
      ("pow.good_evals", M.pow_good_evals);
      ("pow.bad_admitted", M.pow_bad_admitted);
    ]

  let phase sz eh stream =
    let failures = ref [] in
    let epoch_steps = (config sz).Tinygroups.Epoch.params.Tinygroups.Params.epoch_steps in
    let start = M.snapshot (Tinygroups.Epoch.metrics eh) in
    let rates = ref [] and prop_msgs = ref 0 and disagreements = ref 0 in
    let probe_fail = ref 0 and probe_msgs = ref 0. and red = ref 0 and suspect = ref 0 in
    let success = ref 0. and node_epochs = ref 0 and probe_rates = ref [] in
    for e = 1 to sz.epochs do
      let pr =
        Span.call sp_propagate (fun () ->
            Randstring.Propagate.run (Rng.split stream) (Tinygroups.Epoch.primary eh) ~epoch_steps
              Randstring.Propagate.default_config)
      in
      (* Under drop 0.15 and PoW-admitted adversaries a run can lose
         agreement; that is counted in success_rate. The check is that
         the report is consistent with itself. *)
      check failures
        (pr.Randstring.Propagate.participants > 0
        && pr.Randstring.Propagate.agreement = (pr.Randstring.Propagate.agreement_violations = 0))
        "epoch %d: propagation report is inconsistent (%d participants, agreement %b, %d violations)"
        e pr.Randstring.Propagate.participants pr.Randstring.Propagate.agreement
        pr.Randstring.Propagate.agreement_violations;
      if not pr.Randstring.Propagate.agreement then incr disagreements;
      prop_msgs := !prop_msgs + pr.Randstring.Propagate.messages;
      Span.call sp_advance (fun () -> Tinygroups.Epoch.advance eh);
      let epoch_ns = Span.last_ns.(sp_propagate) + Span.last_ns.(sp_advance) in
      let g = Tinygroups.Epoch.primary eh in
      let nodes = G.n_groups g in
      node_epochs := !node_epochs + nodes;
      rates := per_s nodes epoch_ns :: !rates;
      for _ = 1 to sz.probes do
        let r =
          Span.call sp_probe (fun () ->
              Tinygroups.Robustness.search_success (Rng.split stream) g ~failure:`Majority
                ~samples:sz.samples)
        in
        probe_rates := per_s sz.samples Span.last_ns.(sp_probe) :: !probe_rates;
        let open Tinygroups.Robustness in
        probe_fail := !probe_fail + (r.samples - r.successes);
        probe_msgs := !probe_msgs +. r.mean_messages;
        success := !success +. r.success_rate
      done;
      let c = G.census g in
      red := !red + c.G.red;
      suspect := !suspect + c.G.suspect_
    done;
    let history = List.length (Tinygroups.Epoch.history eh) in
    check failures (history = sz.epochs + 1) "epoch history has %d entries, want %d" history
      (sz.epochs + 1);
    let delta =
      M.diff (M.snapshot (Tinygroups.Epoch.metrics eh)) start
    in
    let per_epoch x = float_of_int x /. float_of_int sz.epochs in
    let probes = sz.samples * sz.probes * sz.epochs in
    let probe_calls = float_of_int (sz.probes * sz.epochs) in
    let exact =
      [
        ( "msgs_per_op",
          ratio (M.found delta M.msg_membership + !prop_msgs) !node_epochs );
        ("msgs_per_read", !probe_msgs /. probe_calls);
        ( "success_rate",
          1. -. ratio (!probe_fail + !disagreements) (probes + sz.epochs) );
        ("randstring.messages", per_epoch !prop_msgs);
        ("group_graph.census_red", per_epoch !red);
        ("group_graph.census_suspect", per_epoch !suspect);
        ("robustness.search_success", !success /. probe_calls);
      ]
      @ List.map (fun (name, c) -> (name, per_epoch (M.found delta c))) counters
    in
    {
      attempted = probes + sz.epochs;
      samples = [ ("ops_per_s", !rates); ("reads_per_s", !probe_rates) ];
      layers =
        [
          ("epoch.advance_s", Span.total_s sp_advance);
          ("randstring.propagate_s", Span.total_s sp_propagate);
          ("robustness.search_success_s", Span.total_s sp_probe);
          ("parallel.jobs", float_of_int sz.jobs);
        ];
      exact;
      failures = !failures;
    }

  let workload ~tiny ~seconds =
    let sz = size ~tiny ~seconds in
    {
      params =
        [
          ("n", string_of_int sz.n);
          ("reps", string_of_int sz.reps);
          ("epochs_per_rep", string_of_int sz.epochs);
          ("build_jobs", string_of_int sz.jobs);
          ("pow", "Competitive/Steady");
          ("conditions", Sim.Conditions.describe conditions);
          ("probe_calls_per_epoch", string_of_int sz.probes);
          ("probe_samples", string_of_int sz.samples);
          ("failure", "Majority");
        ];
      warmups = 1;
      reps = sz.reps;
      setups_per_rep = (if tiny then 1 else 6);
      setup = setup sz;
      phase = phase sz;
    }
end

(* ================================================================== *)
(* serve-1024                                                          *)
(* ================================================================== *)

module Serve = struct
  type size = {
    n : int;
    reps : int;
    users : int;
    ops_per_user : int;
    names : int;
    churn : int;
    block : int;  (* ops, and gets, per rate sample *)
  }

  let size ~tiny ~seconds =
    if tiny then { n = 256; reps = 2; users = 16; ops_per_user = 20; names = 40; churn = 6; block = 100 }
    else
      {
        n = 1024;
        reps = max 2 (4 * seconds / 10);
        users = 512;
        ops_per_user = 128;
        names = 400;
        churn = 24;
        block = 2_000;
      }

  let think_ms = 50.
  let system_key = "serve"
  let serve_oracle = Hashing.Oracle.make ~system_key:"serve" ~label:"h-serve"

  type state = {
    eh : Tinygroups.Epoch.t;
    store : Kvstore.Store.t;
    metrics : M.t;
    names : string array;
    values : string array;
    dist : Workload.Resources.dist;
  }

  let connect stream sz store =
    let goods =
      Adversary.Population.good_ids (G.population (Kvstore.Store.graph store))
    in
    Span.call sp_connect (fun () ->
        Array.init sz.users (fun _ ->
            Kvstore.Store.connect store ~id:goods.(Rng.int stream (Array.length goods))))

  let setup sz stream =
    let eh =
      Span.call sp_epoch_init (fun () ->
          Tinygroups.Epoch.init (Rng.split stream) (Tinygroups.Epoch.default_config ~n:sz.n))
    in
    let metrics = M.create () in
    let store =
      Span.call sp_store_create (fun () ->
          Kvstore.Store.create ~metrics ~system_key (Tinygroups.Epoch.primary eh))
    in
    let resources = Workload.Resources.synthetic ~system_key ~count:sz.names ~prefix:"c0-" in
    let names = Array.init sz.names (Workload.Resources.name resources) in
    let clients = connect stream sz store in
    Span.call sp_prime (fun () ->
        Array.iter (fun name -> ignore (Kvstore.Store.put clients.(0) ~name ~value:"v0")) names);
    ( {
        eh;
        store;
        metrics;
        names;
        values = Array.map (fun name -> "v-" ^ name) names;
        dist = Workload.Resources.distribution resources (Workload.Resources.Zipf 0.9);
      },
      [
        ("epoch.init_s", Span.seconds Span.last_ns.(sp_epoch_init));
        ("kvstore.prime_s", Span.seconds Span.last_ns.(sp_prime));
      ] )

  type acc = { mutable ops : int; mutable ok : int; mutable msgs : int }

  let phase sz st stream =
    let failures = ref [] in
    let start = M.snapshot st.metrics in
    let store = ref st.store in
    let live = ref (Kvstore.Store.graph st.store) in
    let acc_get = { ops = 0; ok = 0; msgs = 0 } in
    let acc_put = { ops = 0; ok = 0; msgs = 0 } in
    let acc_del = { ops = 0; ok = 0; msgs = 0 } in
    (* virtual latency histogram, one slot per ms *)
    let lat_counts = ref (Array.make 4096 0) in
    let exec_ns = ref 0 and rehomes = ref 0 in
    let get_rates = ref [] and block_ns = ref 0 in
    let op_rates = ref [] and block_start = ref 0 and block_ops = ref 0 in
    let rehome g =
      store := Span.call sp_rehome (fun () -> Kvstore.Store.rehome !store g);
      incr rehomes;
      live := g
    in
    let segment i =
      let clients = connect stream sz !store in
      let spec =
        {
          Workload.Traffic.users = sz.users;
          ops_per_user = sz.ops_per_user;
          think_ms;
          mix = Workload.Traffic.default_mix;
          dist = st.dist;
        }
      in
      block_ops := 0;
      let execute ~user ~seq:_ ~now:_ ~op ~key latrng =
        let t0 = Span.now () in
        (* op rate from one block's first entry to the next block's *)
        if !block_ops = 0 then block_start := t0
        else if !block_ops = sz.block then begin
          op_rates := per_s sz.block (t0 - !block_start) :: !op_rates;
          block_start := t0;
          block_ops := 0
        end;
        incr block_ops;
        let client = clients.(user) and name = st.names.(key) in
        let acc, ok, msgs, write =
          match op with
          | Workload.Traffic.Get -> (
              let r = Span.call sp_get (fun () -> Kvstore.Store.get client ~name) in
              block_ns := !block_ns + Span.last_ns.(sp_get);
              if (acc_get.ops + 1) mod sz.block = 0 then begin
                get_rates := per_s sz.block !block_ns :: !get_rates;
                block_ns := 0
              end;
              match r with
              | Kvstore.Store.Found { messages; _ }
              | Kvstore.Store.Recovered { messages; _ }
              | Kvstore.Store.Not_found { messages } -> (acc_get, true, messages, false)
              | Kvstore.Store.Corrupted { messages } -> (acc_get, false, messages, false)
              | Kvstore.Store.Read_blocked _ -> (acc_get, false, 0, false))
          | Workload.Traffic.Put | Workload.Traffic.Delete -> (
              let acc, sp = if op = Workload.Traffic.Put then (acc_put, sp_put) else (acc_del, sp_delete) in
              let r =
                Span.call sp (fun () ->
                    if op = Workload.Traffic.Put then
                      Kvstore.Store.put client ~name ~value:st.values.(key)
                    else Kvstore.Store.delete client ~name)
              in
              match r with
              | Kvstore.Store.Stored { messages; _ } -> (acc, true, messages, true)
              | Kvstore.Store.Write_blocked _ -> (acc, false, 0, false))
        in
        acc.ops <- acc.ops + 1;
        if ok then acc.ok <- acc.ok + 1;
        acc.msgs <- acc.msgs + msgs;
        let hops = (Kvstore.Store.last_op_stats !store).Kvstore.Store.hops in
        let t = virtual_latency latrng ~ok ~hops ~write in
        if t >= Array.length !lat_counts then begin
          let grown = Array.make (2 * t) 0 in
          Array.blit !lat_counts 0 grown 0 (Array.length !lat_counts);
          lat_counts := grown
        end;
        !lat_counts.(t) <- !lat_counts.(t) + 1;
        exec_ns := !exec_ns + (Span.now () - t0);
        t
      in
      let stats =
        Span.call sp_traffic (fun () -> Workload.Traffic.run (Rng.split stream) spec ~execute)
      in
      check failures
        (stats.Workload.Traffic.ops = sz.users * sz.ops_per_user)
        "serve segment %d: %d ops completed, want %d" i stats.Workload.Traffic.ops
        (sz.users * sz.ops_per_user)
    in
    segment 0;
    (* Churn boundary: live departures and joins through the epoch's
       old pair, then the store follows the graph. *)
    let leaders = G.leaders !live in
    let victims =
      Array.to_list
        (Array.map (fun i -> leaders.(i))
           (Rng.sample_without_replacement stream sz.churn (Array.length leaders)))
    in
    let g, _ = Span.call sp_depart_many (fun () -> Tinygroups.Dynamic.depart_many !live ~ids:victims) in
    let taken = Hashtbl.create 64 in
    let rings = [ Adversary.Population.ring (G.population !live) ] in
    let newcomers =
      List.init sz.churn (fun _ ->
          let id = fresh_point stream rings taken in
          (id, Rng.bernoulli stream beta))
    in
    let g, _ =
      Span.call sp_join_many (fun () ->
          Tinygroups.Dynamic.join_many (Rng.split stream) (M.create ()) g
            ~old_pair:(Tinygroups.Epoch.old_pair st.eh) ~member_oracle:serve_oracle
            ~ids:newcomers)
    in
    rehome g;
    segment 1;
    (* Epoch boundary: full turnover, the store migrates onto it. *)
    Span.call sp_advance (fun () -> Tinygroups.Epoch.advance st.eh);
    rehome (Tinygroups.Epoch.primary st.eh);
    segment 2;
    let delta = M.diff (M.snapshot st.metrics) start in
    let hits = M.found delta M.kv_route_cache_hit in
    let misses = M.found delta M.kv_route_cache_miss in
    let invalidations = M.found delta M.kv_route_cache_invalidated in
    check failures (invalidations = !rehomes)
      "serve: %d route-cache invalidations, want one per rehome (%d)" invalidations !rehomes;
    check failures (Kvstore.Store.epoch_index !store = !rehomes)
      "serve: store epoch index %d, want %d" (Kvstore.Store.epoch_index !store) !rehomes;
    let ops = acc_get.ops + acc_put.ops + acc_del.ops in
    let ok = acc_get.ok + acc_put.ok + acc_del.ok in
    let msgs = acc_get.msgs + acc_put.msgs + acc_del.msgs in
    let lat_pct q = float_of_int (histogram_percentile !lat_counts ops q) in
    let exact =
      [
        ("msgs_per_op", ratio msgs ops);
        ("msgs_per_read", ratio acc_get.msgs acc_get.ops);
        ("success_rate", ratio ok ops);
        ("kvstore.virtual_p50_ms", lat_pct 0.5);
        ("kvstore.virtual_p99_ms", lat_pct 0.99);
        ("kvstore.get_count", float_of_int acc_get.ops);
        ("kvstore.put_count", float_of_int acc_put.ops);
        ("kvstore.delete_count", float_of_int acc_del.ops);
        ("kvstore.route_cache_hits", float_of_int hits);
        ("kvstore.route_cache_misses", float_of_int misses);
        ("kvstore.route_cache_hit_rate", ratio hits (hits + misses));
      ]
    in
    {
      attempted = ops;
      samples = [ ("ops_per_s", !op_rates); ("reads_per_s", !get_rates) ];
      layers =
        [
          ("kvstore.rehome_s", Span.total_s sp_rehome);
          ("epoch.advance_s", Span.total_s sp_advance);
          ("dynamic.depart_many_s", Span.total_s sp_depart_many);
          ("dynamic.join_many_s", Span.total_s sp_join_many);
          ("workload.traffic_overhead_s", Span.seconds (Span.total_ns.(sp_traffic) - !exec_ns));
        ];
      exact;
      failures = !failures;
    }

  let workload ~tiny ~seconds =
    let sz = size ~tiny ~seconds in
    {
      params =
        [
          ("n", string_of_int sz.n);
          ("reps", string_of_int sz.reps);
          ("users", string_of_int sz.users);
          ("ops_per_user_per_segment", string_of_int sz.ops_per_user);
          ("segments", "3");
          ("names", string_of_int sz.names);
          ("zipf", "0.9");
          ("think_ms", string_of_float think_ms);
          ("mix", "get 0.80 / put 0.15 / delete 0.05");
          ("churn_per_boundary", string_of_int sz.churn);
          ("route_cache", "on");
          ("latency_model", Sim.Latency.describe latency_model);
        ];
      warmups = 1;
      reps = sz.reps;
      setups_per_rep = (if tiny then 1 else 4);
      setup = setup sz;
      phase = phase sz;
    }
end
