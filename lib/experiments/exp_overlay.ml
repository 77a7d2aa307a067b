let overlays =
  [
    ("chord", fun ring -> Overlay.Chord.make ring);
    ("chord++", fun ring -> Overlay.Chord_pp.make ring);
    ("debruijn", fun ring -> Overlay.Debruijn.make ring);
  ]

(* E16 below rebuilds the same group graph over salted chord++ views,
   so retries walk different paths against identical group colors. *)
let with_overlay g overlay =
  Tinygroups.Group_graph.assemble
    ~params:(Tinygroups.Group_graph.params g)
    ~population:(Tinygroups.Group_graph.population g) ~overlay
    ~groups:(Tinygroups.Group_graph.groups g)
    ~confused:(Tinygroups.Group_graph.confused_leaders g) ()

let run_e0 ?(jobs = 1) rng scale =
  let table =
    Table.create ~title:"E0 (SI-C): input-graph properties P1-P4, per construction"
      ~columns:
        [
          "n";
          "overlay";
          "hops mean (P1)";
          "hops max";
          "load (P2)";
          "degree (P3)";
          "congestion (P4)";
        ]
  in
  let searches = Scale.searches scale in
  let ns =
    match scale with
    | Scale.Quick -> [ 1024 ]
    | Scale.Standard -> [ 2048; 8192 ]
    | Scale.Full | Scale.Stress -> [ 4096; 16384 ]
  in
  (* Each item owns one ring and probes the three constructions over
     it, so the constructions stay comparable within a row block. *)
  let blocks =
    Common.map_configs rng ~jobs ns (fun n stream ->
        let ring = Idspace.Ring.populate (Prng.Rng.split stream) n in
        List.map
          (fun (name, make) ->
            let ov = make ring in
            let paths = Overlay.Probe.path_lengths (Prng.Rng.split stream) ov ~searches in
            let load = Overlay.Probe.load_balance ov in
            let deg = Overlay.Probe.degrees (Prng.Rng.split stream) ov ~sample:300 in
            let congestion =
              Overlay.Probe.congestion (Prng.Rng.split stream) ov ~searches
            in
            [
              Table.fint n;
              name;
              Table.ffloat ~digits:1 paths.Overlay.Probe.mean_hops;
              Table.fint paths.Overlay.Probe.max_hops;
              Table.ffloat load;
              Table.ffloat ~digits:1 deg.Overlay.Probe.mean;
              Table.ffloat congestion;
            ])
          overlays)
  in
  List.iter (List.iter (Table.add_row table)) blocks;
  Table.add_note table
    "load = max per-ID key-space share x n; congestion = max traversal rate x n/ln n";
  Table.add_note table
    "(an O(1) statistic certifies P4's O(log n / n)). chord++ trades ~15% longer";
  Table.add_note table
    "paths for route diversity — its payoff is retries past red groups (E16).";
  table

let run_e15 ?(jobs = 1) rng scale =
  let table =
    Table.create
      ~title:
        "E15 (Appendix VI): recursive vs iterative secure search — same paths, \
         different message profiles"
      ~columns:
        [ "n"; "hops mean"; "recursive msgs"; "iterative msgs"; "ratio"; "success (both)" ]
  in
  let searches = Scale.searches scale / 2 in
  let ns = match scale with Scale.Quick -> [ 1024 ] | _ -> [ 2048; 8192 ] in
  let rows =
    Common.map_configs rng ~jobs ns (fun n stream ->
        let _, g = Common.build_tiny stream ~n ~beta:0.05 () in
        let leaders = Tinygroups.Group_graph.leaders g in
        let rec_msgs = ref 0 and iter_msgs = ref 0 and hops = ref 0 in
        let rec_ok = ref 0 and iter_ok = ref 0 in
        for _ = 1 to searches do
          let src = leaders.(Prng.Rng.int stream (Array.length leaders)) in
          let key = Idspace.Point.random stream in
          let r = Tinygroups.Secure_route.search g ~failure:`Majority ~src ~key in
          let i = Tinygroups.Secure_route.search_iterative g ~failure:`Majority ~src ~key in
          rec_msgs := !rec_msgs + r.Tinygroups.Secure_route.messages;
          iter_msgs := !iter_msgs + i.Tinygroups.Secure_route.messages;
          hops := !hops + List.length r.Tinygroups.Secure_route.group_path;
          if Tinygroups.Secure_route.succeeded r then incr rec_ok;
          if Tinygroups.Secure_route.succeeded i then incr iter_ok
        done;
        assert (!rec_ok = !iter_ok);
        let f x = float_of_int x /. float_of_int searches in
        [
          Table.fint n;
          Table.ffloat ~digits:1 (f !hops);
          Table.ffloat ~digits:0 (f !rec_msgs);
          Table.ffloat ~digits:0 (f !iter_msgs);
          Table.ffloat (float_of_int !iter_msgs /. float_of_int (max 1 !rec_msgs));
          Table.fpct (f !rec_ok);
        ])
  in
  List.iter (Table.add_row table) rows;
  Table.add_note table
    "Iterative pays ~2x (round trips through the source group) for the client";
  Table.add_note table
    "keeping control of the search — the DNS-style trade-off of Appendix VI.";
  table

let run_e16 ?(jobs = 1) rng scale =
  let n = match scale with Scale.Quick -> 1024 | _ -> 4096 in
  (* A harsher adversary so that blocked searches actually occur. *)
  let beta = 0.15 in
  let params = { Tinygroups.Params.default with Tinygroups.Params.beta } in
  let pop =
    Adversary.Population.generate (Prng.Rng.split rng) ~n ~beta
      ~strategy:Adversary.Placement.Uniform
  in
  let ring = Adversary.Population.ring pop in
  let base_overlay = Overlay.Chord.make ring in
  let g0 =
    Tinygroups.Group_graph.build_direct ~params ~population:pop ~overlay:base_overlay
      ~member_oracle:Common.h1 ()
  in
  let chord_view = g0 in
  let salted salt = with_overlay g0 (Overlay.Chord_pp.make ~salt ring) in
  let views = Array.init 4 salted in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "E16 ([12,26,37]-style multi-route retries): success after k attempts, n=%d, \
            beta=%.2f"
           n beta)
      ~columns:[ "attempts"; "chord (greedy)"; "chord++ (salted)" ]
  in
  let searches = Scale.searches scale / 2 in
  let trials =
    Array.init searches (fun _ ->
        let leaders = Tinygroups.Group_graph.leaders g0 in
        let src = leaders.(Prng.Rng.int rng (Array.length leaders)) in
        let key = Idspace.Point.random rng in
        (src, key))
  in
  let succ g ~src ~key =
    (Tinygroups.Secure_route.verdict g ~failure:`Majority ~src ~key).Tinygroups.Secure_route.ok
  in
  (* Searches are deterministic in (graph, src, key) and the graphs
     are immutable, so the trials fan out over domains as they are. *)
  let outcomes =
    Common.map_configs rng ~jobs (Array.to_list trials) (fun (src, key) _stream ->
        let chord_ok = succ chord_view ~src ~key in
        let rec first_view a =
          if a >= Array.length views then None
          else if succ views.(a) ~src ~key then Some a
          else first_view (a + 1)
        in
        (chord_ok, first_view 0))
  in
  for attempts = 1 to 4 do
    let chord_ok = ref 0 and pp_ok = ref 0 in
    List.iter
      (fun (c, first) ->
        (* Greedy chord retries the same deterministic path. *)
        if c then incr chord_ok;
        match first with Some a when a < attempts -> incr pp_ok | _ -> ())
      outcomes;
    let pct x = Table.fpct (float_of_int x /. float_of_int searches) in
    Table.add_row table [ Table.fint attempts; pct !chord_ok; pct !pp_ok ]
  done;
  Table.add_note table
    "Retrying greedy chord repeats the blocked path; salted chord++ paths diverge";
  Table.add_note table
    "mid-route, recovering most searches the first attempt lost.";
  table
