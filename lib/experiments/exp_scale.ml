(* E25: the stress scale tier.

   Builds the tiny-group graph and the classical log n baseline over
   the same population at the scales where the paper's headline
   actually bites (log log 2^20 vs log 2^20), churns each ring with a
   constant-fraction batch (the Guerraoui–Huc–Kermarrec regime,
   capped — see [churn_k]), and reports the per-node communication
   cost gap, which must widen with n.

   Determinism split: everything in the rendered table is a pure
   function of (seed, scale) — group sizes, cost model, churn update
   counts, and the jobs=1 vs jobs=4 build equality gate. Wall-clock,
   peak RSS and measured heap words are real measurements and so
   live only in the JSON report (`make bench-scale` →
   BENCH_scale.json), never in the digest-checked table. *)

let beta = 0.05

(* Churn batch per n: a constant fraction (1/64) of the ring, capped
   at 512 events. The cap keeps the batch's routed-search bill
   affordable (each newcomer still runs its full solicitation and
   verification protocol) while staying a multiple of every group's
   size; the overlay side is O(1) rebuilds per batch regardless. *)
let churn_k n = min 512 (n / 64)

let vmhwm_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
      let rec go () =
        match input_line ic with
        | exception End_of_file ->
            close_in ic;
            0
        | line -> (
            match Scanf.sscanf_opt line "VmHWM: %d kB" (fun x -> x) with
            | Some v ->
                close_in ic;
                v
            | None -> go ())
      in
      go ()

let time f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

(* One scheme's deterministic shape plus its (JSON-only) measured
   cost. [comm] is the paper's per-node communication unit: every
   protocol step costs O(|G|^2) messages inside a group, so the mean
   of |G|^2 over groups is the per-node price of a round. *)
type side = {
  mean_g : float;
  comm : float;
  red : int;
  words_per_node : int;  (* measured; JSON only *)
  build_s : float;  (* measured; JSON only *)
}

type row = {
  n : int;
  k : int;
  tiny : side;
  logn : side;
  gap : float;  (* logn.comm /. tiny.comm *)
  jobs_match : bool;  (* build_direct ~jobs:1 == ~jobs:4, structurally *)
  depart_updates : int;
  join_updates : int;
  join_lone_leaders : int;
      (* newcomers whose every member draw failed ([members = [w]]) *)
  join_overlay_rebuilds : int;  (* must be exactly 1 per batch *)
  build_j4_s : float;  (* measured; JSON only *)
  depart_s : float;  (* measured; JSON only *)
  join_s : float;  (* measured; JSON only *)
  rss_kb : int;  (* measured; JSON only *)
}

type report = { scale : Scale.t; rows : row list }

let mean_sq_group_size g =
  let sum, count =
    Tinygroups.Group_graph.fold_groups
      (fun _ grp (acc, c) ->
        let s = float_of_int (Tinygroups.Group.size grp) in
        (acc +. (s *. s), c + 1))
      g (0., 0)
  in
  if count = 0 then 0. else sum /. float_of_int count

let side_of ~n ~build_s g =
  {
    mean_g = Tinygroups.Group_graph.mean_group_size g;
    comm = mean_sq_group_size g;
    red = (Tinygroups.Group_graph.census g).Tinygroups.Group_graph.red;
    words_per_node = Obj.reachable_words (Obj.repr g) / max 1 n;
    build_s;
  }

let rec fresh_point stream ring =
  let p = Idspace.Point.random stream in
  if Idspace.Ring.mem p ring then fresh_point stream ring else p

let run_row stream n =
  let k = churn_k n in
  let (pop, g1), build_j1_s =
    time (fun () -> Common.build_tiny (Prng.Rng.split stream) ~jobs:1 ~n ~beta ())
  in
  let params = Tinygroups.Group_graph.params g1 in
  let overlay = Tinygroups.Group_graph.overlay g1 in
  (* The jobs fan-out gate: at stress n the formation loop is split
     over domains, and any scheduling leak into the result would show
     up in the structural comparison. g4 forms its groups over g1's
     population and overlay, so jobs is the only varying input. *)
  let g4, build_j4_s =
    time (fun () ->
        Tinygroups.Group_graph.build_direct ~jobs:4 ~params ~population:pop ~overlay
          ~member_oracle:Common.h1 ())
  in
  let jobs_match = Tinygroups.Group_graph.equal g1 g4 in
  let logn_g, logn_s =
    time (fun () ->
        Baseline.Logn_groups.build ~params ~population:pop ~overlay
          ~member_oracle:Common.h1 ())
  in
  (* Constant-fraction churn: k leaders depart in one batch, then k
     fresh IDs join through the (pre-churn) graph pair. *)
  let victims =
    Array.to_list (Array.sub (Tinygroups.Group_graph.leaders g1) 0 k)
  in
  let (g_dep, dep_cost), depart_s =
    time (fun () -> Tinygroups.Dynamic.depart_many g1 ~ids:victims)
  in
  let old_pair = Tinygroups.Membership.make_old_pair ~failure:`Majority g1 None in
  let newcomers =
    List.init k (fun _ ->
        ( fresh_point stream (Adversary.Population.ring pop),
          Prng.Rng.bernoulli stream beta ))
  in
  let join_metrics = Sim.Metrics.create () in
  let (_, join_cost), join_s =
    time (fun () ->
        Tinygroups.Dynamic.join_many (Prng.Rng.split stream) join_metrics g_dep
          ~old_pair ~member_oracle:Common.h1 ~ids:newcomers)
  in
  {
    n;
    k;
    tiny = side_of ~n ~build_s:build_j1_s g1;
    logn = side_of ~n ~build_s:logn_s logn_g;
    gap =
      (let t = mean_sq_group_size g1 in
       if t = 0. then 0. else mean_sq_group_size logn_g /. t);
    jobs_match;
    depart_updates = dep_cost.Tinygroups.Dynamic.member_updates;
    join_updates = join_cost.Tinygroups.Dynamic.member_updates;
    join_lone_leaders = Sim.Metrics.get join_metrics Sim.Metrics.group_lone_leader;
    join_overlay_rebuilds = Sim.Metrics.get join_metrics Sim.Metrics.overlay_rebuilds;
    build_j4_s;
    depart_s;
    join_s;
    rss_kb = vmhwm_kb ();
  }

let run ?(jobs = 1) rng scale =
  let ns =
    match scale with
    | Scale.Stress -> Scale.n_sweep Scale.Stress
    | Scale.Quick -> [ 4096; 8192 ]
    | Scale.Standard | Scale.Full -> [ 8192; 16384; 32768 ]
  in
  let rows = Common.map_configs rng ~jobs ns (fun n stream -> run_row stream n) in
  { scale; rows }

let to_table r =
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "E25 (scale): tiny vs log n per-node cost across the %s tier \
            (beta=%.2f, churn batch k=min(512, n/64))"
           (Scale.to_string r.scale) beta)
      ~columns:
        [
          "n";
          "|G| tiny";
          "|G| logn";
          "msg/node tiny";
          "msg/node logn";
          "gap";
          "red t/l";
          "k";
          "dep upd";
          "join upd";
          "j1=j4";
        ]
  in
  List.iter
    (fun row ->
      Table.add_row table
        [
          Table.fint row.n;
          Table.ffloat ~digits:2 row.tiny.mean_g;
          Table.ffloat ~digits:2 row.logn.mean_g;
          Table.ffloat ~digits:1 row.tiny.comm;
          Table.ffloat ~digits:1 row.logn.comm;
          Table.ffloat ~digits:2 row.gap;
          Printf.sprintf "%d/%d" row.tiny.red row.logn.red;
          Table.fint row.k;
          Table.fint row.depart_updates;
          Table.fint row.join_updates;
          (if row.jobs_match then "yes" else "NO");
        ]
    )
    r.rows;
  Table.add_note table
    "msg/node = mean |G|^2 over groups: the per-node cost of one intra-group";
  Table.add_note table
    "round (all-to-all verification). gap = logn/tiny; Theta(lnln n) vs";
  Table.add_note table
    "Theta(ln n) sizing makes it widen with n (the paper's headline at scale).";
  Table.add_note table
    "j1=j4: build_direct ~jobs:1 and ~jobs:4 produced structurally identical";
  Table.add_note table
    "graphs over one population (the domain fan-out determinism gate).";
  Table.add_note table
    "Wall-clock and peak RSS are measured, not derived: see BENCH_scale.json.";
  table

let to_json r =
  let side_json s =
    Report.Obj
      [
        ("mean_group_size", Report.fixed 4 s.mean_g);
        ("msgs_per_node", Report.fixed 2 s.comm);
        ("red", Report.Int s.red);
        ("heap_words_per_node", Report.Int s.words_per_node);
        ("build_wall_s", Report.fixed 3 s.build_s);
      ]
  in
  let row_json row =
    Report.Obj
      [
        ("n", Report.Int row.n);
        ("churn_k", Report.Int row.k);
        ("tiny", side_json row.tiny);
        ("logn", side_json row.logn);
        ("comm_gap", Report.fixed 4 row.gap);
        ("jobs_deterministic", Report.Bool row.jobs_match);
        ("build_jobs4_wall_s", Report.fixed 3 row.build_j4_s);
        ( "depart",
          Report.Obj
            [
              ("member_updates", Report.Int row.depart_updates);
              ("wall_s", Report.fixed 3 row.depart_s);
            ] );
        ( "join",
          Report.Obj
            [
              ("member_updates", Report.Int row.join_updates);
              ("wall_s", Report.fixed 3 row.join_s);
              ("lone_leaders", Report.Int row.join_lone_leaders);
              ("overlay_rebuilds", Report.Int row.join_overlay_rebuilds);
            ] );
        ("peak_rss_kb", Report.Int row.rss_kb);
      ]
  in
  Report.Obj
    [
      ("experiment", Report.String "e25");
      ("scale", Report.String (Scale.to_string r.scale));
      (* The machine behind the wall-clock fields. *)
      ("cores", Report.Int (Domain.recommended_domain_count ()));
      ("beta", Report.Float beta);
      ( "notes",
        Report.String
          "peak_rss_kb is the process-wide VmHWM sampled after the row completes \
           (monotone across rows; per-n attribution assumes --jobs 1, as make \
           bench-scale runs). heap_words_per_node counts all words reachable from \
           the graph, including the ring/overlay shared between the two schemes. \
           build_jobs4_wall_s times build_direct ~jobs:4 over the jobs-1 build's \
           population and overlay; tiny.build_wall_s also generates both." );
      ("rows", Report.List (List.map row_json r.rows));
    ]

let run_e25 ?(jobs = 1) rng scale = to_table (run ~jobs rng scale)
