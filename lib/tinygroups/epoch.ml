open Idspace
open Adversary

let log_src = Logs.Src.create "tinygroups.epoch" ~doc:"Two-graph epoch protocol"

module Log = (val Logs.src_log log_src : Logs.LOG)

type mode = Paired | Single

type overlay_kind = Chord | Debruijn

type pow_control = {
  controller : Pow.Controller.config;
  schedule : Join_schedule.t;
}

type config = {
  params : Params.t;
  n : int;
  overlay : overlay_kind;
  mode : mode;
  failure : Secure_route.failure_notion;
  placement : Placement.t;
  size_drift : float;
  build_jobs : int;
  pow : pow_control option;
}

let default_config ~n =
  {
    params = Params.default;
    n;
    overlay = Chord;
    mode = Paired;
    failure = `Majority;
    placement = Placement.Uniform;
    size_drift = 0.;
    build_jobs = 1;
    pow = None;
  }

type t = {
  config : config;
  rng : Prng.Rng.t;
  stream_key : int64;
      (* Base of the transition substream tree: every stream consumed
         inside [build_next] — search-source draws, fault verdicts,
         retry jitter — is re-keyed per (epoch, phase, leader rank)
         from this key, so a leader's draws are a pure function of its
         identity rather than the visit order. That is what lets the
         transition fan out over rank slices and stay byte-identical
         at every [build_jobs]; see DESIGN.md §11. *)
  metrics_ : Sim.Metrics.t;
  conds : Sim.Conditions.active;
      (* Activated once, handed to every membership call. *)
  h1 : Hashing.Oracle.t;
  h2 : Hashing.Oracle.t;
  mutable epoch_ : int;
  mutable g1 : Group_graph.t;
  mutable g2 : Group_graph.t option;
  pow_state : (Pow.Controller.t * Join_schedule.t) option;
  mutable pow_last : Pow.Controller.window option;
  history_ : (int * Group_graph.census) Sim.Series.t;
      (* Chronological push per epoch; O(1) amortised. The seed's
         [history_ @ [row]] append was O(k^2) over k epochs — fatal
         at stress-tier epoch counts (see DESIGN.md memory budget). *)
}

let build_overlay kind ring =
  match kind with
  | Chord -> Overlay.Chord.make ring
  | Debruijn -> Overlay.Debruijn.make ring

let fresh_population rng config =
  let n =
    if config.size_drift <= 0. then config.n
    else begin
      let drift = Float.min 0.9 config.size_drift in
      let base = float_of_int config.n in
      let lo = base *. (1. -. drift) and hi = base *. (1. +. drift) in
      max 8 (int_of_float (lo +. (Prng.Rng.float rng *. (hi -. lo))))
    end
  in
  Population.generate (Prng.Rng.split rng) ~n ~beta:config.params.Params.beta
    ~strategy:config.placement

(* PoW-gated population minting. With a controller armed, each
   epoch's adversarial head-count is no longer the [ceil (beta n)] of
   the closed-form model but whatever the admission window actually
   let through at the going entrance price, while the good side stays
   at the baseline composition's good count. Spends land in the
   metrics table; the population itself is generated with the exact
   admitted bad count (the [-0.49] nudge makes [Population.generate]'s
   [ceil] land on [bad] exactly). The [pow = None] default never
   reaches any of this and consumes no extra PRNG draws — that is the
   digest-neutrality contract (DESIGN.md §12). *)

let pow_good_count config =
  config.n
  - int_of_float (ceil (config.params.Params.beta *. float_of_int config.n))

let pow_run_window ~metrics ~config (ctrl, sched) ~window_epoch =
  let good = pow_good_count config in
  let epoch_steps = config.params.Params.epoch_steps in
  let rate =
    Pow.Budget.adversary_budget ~beta:config.params.Params.beta ~n:good
      ~epoch_steps
  in
  let bad_budget = Join_schedule.epoch_budget sched ~epoch:window_epoch ~rate in
  let fixed = Pow.Controller.fixed_difficulty ctrl in
  let w =
    Pow.Controller.run_window ctrl ~good ~bad_budget
      ~spends_at:(fun ~price -> Join_schedule.spends_at sched ~fixed ~price)
      ()
  in
  Sim.Metrics.add metrics Sim.Metrics.pow_hash_evals
    Pow.Controller.(w.good_spend + w.bad_spend);
  Sim.Metrics.add metrics Sim.Metrics.pow_good_evals w.Pow.Controller.good_spend;
  Sim.Metrics.add metrics Sim.Metrics.pow_bad_evals w.Pow.Controller.bad_spend;
  Sim.Metrics.add metrics Sim.Metrics.pow_bad_admitted
    w.Pow.Controller.admitted_bad;
  w

let pow_population rng ~good ~bad ~placement =
  let total = good + bad in
  let beta =
    if bad = 0 then 0.
    else (float_of_int bad -. 0.49) /. float_of_int total
  in
  Population.generate (Prng.Rng.split rng) ~n:total ~beta ~strategy:placement

let init ?(conditions = Sim.Conditions.none) rng config =
  let system_key = "tinygroups-repro" in
  let h1 = Hashing.Oracle.make ~system_key ~label:"h1" in
  let h2 = Hashing.Oracle.make ~system_key ~label:"h2" in
  let metrics_ = Sim.Metrics.create () in
  let conds = Sim.Conditions.activate ~metrics:metrics_ conditions in
  let stream_key = Prng.Rng.bits64 rng in
  let pow_state =
    Option.map
      (fun pc ->
        (Pow.Controller.create pc.controller ~n:(pow_good_count config),
         pc.schedule))
      config.pow
  in
  let pow_last = ref None in
  let population =
    match pow_state with
    | None -> fresh_population rng config
    | Some st ->
        let w = pow_run_window ~metrics:metrics_ ~config st ~window_epoch:0 in
        pow_last := Some w;
        pow_population rng ~good:(pow_good_count config)
          ~bad:w.Pow.Controller.admitted_bad ~placement:config.placement
  in
  let overlay = build_overlay config.overlay (Population.ring population) in
  let jobs = max 1 config.build_jobs in
  let g1 =
    Group_graph.build_direct ~jobs ~params:config.params ~population ~overlay
      ~member_oracle:h1 ()
  in
  let g2 =
    match config.mode with
    | Single -> None
    | Paired ->
        Some
          (Group_graph.build_direct ~jobs ~params:config.params ~population ~overlay
             ~member_oracle:h2 ())
  in
  {
    config;
    rng;
    stream_key;
    metrics_;
    conds;
    h1;
    h2;
    epoch_ = 0;
    g1;
    g2;
    pow_state;
    pow_last = !pow_last;
    history_ =
      (let h = Sim.Series.create () in
       Sim.Series.push h (0, Group_graph.census g1);
       h);
  }

(* Build one new group graph over [new_pop], drawing members and
   neighbour links through the old pair.

   The formation loop fans out over [config.build_jobs] contiguous
   rank slices of the new ring, one domain each. Every slice works
   against its own {!Sim.Conditions.fork} and metrics table, and
   every leader re-keys those streams to
   [subkey (subkey stream_key (2 epoch + phase)) rank] before its
   first draw — so a leader's searches, fault verdicts and retry
   jitter are a pure function of (stream key, epoch, phase, rank),
   independent of the visit order and hence of the slicing. The
   [phase] salt (0 for the h1 build, 1 for h2) keeps the two builds'
   fault draws uncorrelated — the q_f^2 redundancy argument needs the
   two graphs to lose searches independently. Slices merge back in
   rank order: counters are additive, fault window flags monotone,
   tracker circuit summaries associative, confused/suspect traces
   concatenate — every merge is slicing-invariant by construction
   (DESIGN.md §11), which is what the jobs-equivalence law in
   test_epoch pins. Everything else the slices read (the old pair and
   its graphs, the new ring and overlay) is immutable after
   construction. *)
let build_next t ~old ~new_pop ~new_overlay ~member_oracle ~phase =
  let params = t.config.params in
  let new_ring = Population.ring new_pop in
  let n = Ring.cardinal new_ring in
  let phase_base =
    Prng.Rng.subkey t.stream_key (Int64.of_int ((2 * t.epoch_) + phase))
  in
  let tracker_active = Reliability.Tracker.active t.conds.Sim.Conditions.tracker in
  let run_slice lo hi =
    let metrics = Sim.Metrics.create () in
    let conds = Sim.Conditions.fork t.conds ~metrics in
    let confused = Sim.Series.create () and suspect = Sim.Series.create () in
    let form rank =
      let w = Ring.nth new_ring rank in
      let leader_key = Prng.Rng.subkey phase_base (Int64.of_int rank) in
      Sim.Conditions.reseed conds ~key:leader_key;
      let grp, linked, _ =
        Membership.form_group ~conditions:conds (Prng.Rng.of_int64 leader_key) metrics
          old ~now:t.epoch_ ~params ~member_oracle ~ring:new_ring ~leader:w
          ~neighbors:(new_overlay.Overlay.Overlay_intf.neighbors w)
      in
      (* Any failed link establishment leaves the group confused
         (Lemma 8) — unless a reliability layer is armed, in which
         case a group that exhausted its retry budget {e knows} the
         link is undelivered rather than misdelivered, and marks the
         route suspect (degraded, not poisoned) instead of joining
         the red set. *)
      if not linked then
        if tracker_active then Sim.Series.push suspect w
        else Sim.Series.push confused w;
      grp
    in
    (* [Array.init] forms the slice's groups in rank order. *)
    let groups = Array.init (hi - lo) (fun i -> form (lo + i)) in
    (groups, confused, suspect, conds, metrics)
  in
  let pieces = Parallel.Pool.map_slices ~jobs:t.config.build_jobs ~n run_slice in
  let confused = Sim.Series.create () and suspect = Sim.Series.create () in
  List.iter
    (fun (_, conf, susp, conds, metrics) ->
      Sim.Series.append confused conf;
      Sim.Series.append suspect susp;
      Sim.Conditions.merge ~into:t.conds conds;
      Sim.Metrics.merge t.metrics_ metrics)
    pieces;
  Group_graph.assemble ~params ~population:new_pop ~overlay:new_overlay
    ~groups:(Array.concat (List.map (fun (groups, _, _, _, _) -> groups) pieces))
    ~confused:(Sim.Series.to_list confused)
    ~suspect:(Sim.Series.to_list suspect) ()

let advance t =
  let old = Membership.make_old_pair ~failure:t.config.failure t.g1 t.g2 in
  let new_pop =
    match t.pow_state with
    | None -> fresh_population t.rng t.config
    | Some st ->
        let w =
          pow_run_window ~metrics:t.metrics_ ~config:t.config st
            ~window_epoch:(t.epoch_ + 1)
        in
        t.pow_last <- Some w;
        pow_population t.rng ~good:(pow_good_count t.config)
          ~bad:w.Pow.Controller.admitted_bad ~placement:t.config.placement
  in
  let new_overlay = build_overlay t.config.overlay (Population.ring new_pop) in
  let new1 = build_next t ~old ~new_pop ~new_overlay ~member_oracle:t.h1 ~phase:0 in
  let new2 =
    match t.config.mode with
    | Single -> None
    | Paired ->
        Some (build_next t ~old ~new_pop ~new_overlay ~member_oracle:t.h2 ~phase:1)
  in
  t.g1 <- new1;
  t.g2 <- new2;
  t.epoch_ <- t.epoch_ + 1;
  Faults.Injector.observe_heals t.conds.Sim.Conditions.injector ~now:t.epoch_;
  let census = Group_graph.census new1 in
  Log.debug (fun m ->
      m "epoch %d: n=%d good=%d weak=%d hijacked=%d confused=%d (membership msgs so far: %d)"
        t.epoch_ census.Group_graph.total census.Group_graph.good census.Group_graph.weak
        census.Group_graph.hijacked_ census.Group_graph.confused_
        (Sim.Metrics.get t.metrics_ Sim.Metrics.msg_membership));
  Sim.Series.push t.history_ (t.epoch_, census)

let epoch t = t.epoch_
let primary t = t.g1
let secondary t = t.g2
let old_pair t = Membership.make_old_pair ~failure:t.config.failure t.g1 t.g2
let metrics t = t.metrics_
let pow_last_window t = t.pow_last
let pow_controller t = Option.map fst t.pow_state
let history t = Sim.Series.to_list t.history_
