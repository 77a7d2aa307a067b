let run_e14 ?(jobs = 1) rng scale =
  let n = match scale with Scale.Quick -> 512 | _ -> 2048 in
  let beta = 0.10 in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "E14 (Lemma 10 ablation): bogus-request verification, n=%d, beta=%.2f — \
            accepted spam per 1000 requests"
           n beta)
      ~columns:
        [
          "spam/bad ID";
          "requests";
          "accepted (paired verify)";
          "accepted (single verify)";
          "accepted (no verify)";
        ]
  in
  let h1 = Common.h1 in
  let h2 = Hashing.Oracle.make ~system_key:"tinygroups-repro" ~label:"h2" in
  let params = { Tinygroups.Params.default with Tinygroups.Params.beta } in
  let pop =
    Adversary.Population.generate (Prng.Rng.split rng) ~n ~beta
      ~strategy:Adversary.Placement.Uniform
  in
  let overlay = Overlay.Chord.make (Adversary.Population.ring pop) in
  let g1 =
    Tinygroups.Group_graph.build_direct ~params ~population:pop ~overlay ~member_oracle:h1 ()
  in
  let g2 =
    Tinygroups.Group_graph.build_direct ~params ~population:pop ~overlay ~member_oracle:h2 ()
  in
  let goods = Adversary.Population.good_ids pop in
  let metrics = Sim.Metrics.create () in
  let bad_count = Adversary.Population.bad_count pop in
  let spam_levels = [ 1; 5; 20 ] in
  let configs =
    List.concat_map
      (fun spam_per_bad -> [ (spam_per_bad, `Paired); (spam_per_bad, `Single) ])
      spam_levels
  in
  let counts =
    Common.map_configs rng ~jobs configs (fun (spam_per_bad, which) stream ->
        let pair =
          match which with
          | `Paired -> Tinygroups.Membership.make_old_pair ~failure:`Majority g1 (Some g2)
          | `Single -> Tinygroups.Membership.make_old_pair ~failure:`Majority g1 None
        in
        let requests = spam_per_bad * bad_count in
        let local = Sim.Metrics.create () in
        let hits = ref 0 in
        for _ = 1 to requests do
          let victim = goods.(Prng.Rng.int stream (Array.length goods)) in
          if Tinygroups.Membership.spam_accepted (Prng.Rng.split stream) local pair ~victim
          then incr hits
        done;
        (!hits, local))
  in
  List.iter (fun (_, local) -> Sim.Metrics.merge metrics local) counts;
  let rec rows levels counts =
    match (levels, counts) with
    | [], [] -> ()
    | spam_per_bad :: levels', (p, _) :: (s, _) :: counts' ->
        let requests = spam_per_bad * bad_count in
        let per_k hits = 1000. *. float_of_int hits /. float_of_int requests in
        Table.add_row table
          [
            Table.fint spam_per_bad;
            Table.fint requests;
            Printf.sprintf "%d (%.1f/1k)" p (per_k p);
            Printf.sprintf "%d (%.1f/1k)" s (per_k s);
            Printf.sprintf "%d (1000.0/1k)" requests;
          ];
        rows levels' counts'
    | _ -> assert false
  in
  rows spam_levels counts;
  Table.add_note table
    "Without verification every request inflates a victim's state; with it only";
  Table.add_note table
    "requests whose verification search was hijacked land (a tunable 1/poly rate).";
  Table.add_note table
    (Printf.sprintf "Total verification traffic across all rows: %d membership messages."
       (Sim.Metrics.get metrics Sim.Metrics.msg_membership));
  table
