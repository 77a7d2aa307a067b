open Idspace
open Adversary

let log_src = Logs.Src.create "tinygroups.dynamic" ~doc:"Per-event joins and departures"

module Log = (val Logs.src_log log_src : Logs.LOG)

type cost = {
  searches : int;
  messages : int;
  affected_groups : int;
  member_updates : int;
}

(* Leaders whose finger/successor linking rule touches [id]'s arc:
   for Chord-style rules, v with v + 2^j in (pred(id), id] for some
   j, plus id's ring neighbours. The filter against the overlay's own
   neighbour function keeps every returned leader a true capturer,
   but the set is a lower bound even for Chord and Chord++: each
   stride's arc scan stops after 9 IDs, so a crowded arc loses the
   rest (and for other rules, e.g. the halving links of distance
   halving, it may miss whole arcs). Uncapping the scan would
   change join-time searches and their message counts. *)
let capture_candidates ring ~id =
  let pred = match Ring.predecessor ring id with Some p -> p | None -> id in
  let acc = ref [] in
  let add v = if not (Point.equal v id) then acc := v :: !acc in
  add pred;
  (match Ring.strict_successor ring id with Some s -> add s | None -> ());
  for j = 0 to 61 do
    let stride = 1 lsl j in
    (* v in (pred - 2^j, id - 2^j]: walk the arc. *)
    let from = Point.add_cw pred (-stride) in
    let until = Point.add_cw id (-stride) in
    let rec walk v steps =
      if steps > 8 then () (* arcs hold O(1) IDs in expectation; cap the scan *)
      else if Point.in_cw_range ~from ~until v then begin
        add v;
        match Ring.strict_successor ring v with
        | Some next when not (Point.equal next v) -> walk next (steps + 1)
        | _ -> ()
      end
    in
    (match Ring.strict_successor ring from with Some v -> walk v 0 | None -> ())
  done;
  List.sort_uniq Point.compare !acc

(* The leaders of [ring] other than [id] whose linking rule, given as
   [neighbors], links to [id]; [ring] holds [id]. *)
let linking_to ~neighbors ring ~id =
  List.filter
    (fun v -> List.exists (Point.equal id) (neighbors v))
    (capture_candidates ring ~id)

let captured_by g ~id =
  let ring = Ring.add id (Population.ring (Group_graph.population g)) in
  linking_to
    ~neighbors:((Group_graph.overlay g).Overlay.Overlay_intf.neighbors_in ring)
    ring ~id

let no_cost = { searches = 0; messages = 0; affected_groups = 0; member_updates = 0 }

let join_many rng metrics g ~old_pair ~member_oracle ~ids =
  let pop0 = Group_graph.population g in
  let ring0 = Population.ring pop0 in
  let seen = Hashtbl.create (max 16 (List.length ids)) in
  List.iter
    (fun (id, _) ->
      if Ring.mem id ring0 || Hashtbl.mem seen id then
        invalid_arg "Dynamic.join_many: ID already present";
      Hashtbl.add seen id ())
    ids;
  if ids = [] then (g, no_cost)
  else begin
    let params = Group_graph.params g in
    let overlay0 = Group_graph.overlay g in
    let before = Sim.Metrics.snapshot metrics in
    let searches = ref 0 and affected = ref 0 and member_updates = ref 0 in
    let new_groups = Hashtbl.create (Hashtbl.length seen) and new_confused = ref [] in
    (* Each newcomer in batch order runs the join protocol against the
       ring holding the batch's earlier newcomers and itself:

       1. form its group through the old graphs
          ({!Membership.form_group}: member solicitation, then its
          neighbour links);
       2. existing groups that must now link to the newcomer verify
          the update; a failed verification leaves that group
          confused.

       The newcomer's stream is keyed on its identity —
       [of_subkey (bits64 rng) id] with the base drawn at the ID's
       turn — so a batch and the fold of one-ID batches consume [rng]
       identically and every per-ID draw sequence matches exactly.
       Joins never modify existing groups, so only the growing ring
       is kept: one {!Ring.add} per newcomer, which copies only the
       ring's small delta of added points, and every overlay query
       goes through the table-free [neighbors_in]. The batch then pays
       a single population merge, overlay rebuild and assembly, where
       the fold pays one of each per newcomer. *)
    let ring = ref ring0 in
    List.iter
      (fun (id, _bad) ->
        ring := Ring.add id !ring;
        let neighbors = overlay0.Overlay.Overlay_intf.neighbors_in !ring in
        let idrng = Prng.Rng.of_subkey (Prng.Rng.bits64 rng) (Point.to_u62 id) in
        let grp, linked, formed =
          Membership.form_group idrng metrics old_pair ~now:0 ~params ~member_oracle
            ~ring:!ring ~leader:id ~neighbors:(neighbors id)
        in
        if not linked then new_confused := id :: !new_confused;
        let captured = linking_to ~neighbors !ring ~id in
        List.iter
          (fun v ->
            if not (Membership.establish_neighbor idrng metrics old_pair ~target:id)
            then new_confused := v :: !new_confused)
          captured;
        searches :=
          !searches + formed + (Membership.request_searches * List.length captured);
        Hashtbl.replace new_groups id grp;
        affected := !affected + List.length captured;
        member_updates := !member_updates + Group.size grp)
      ids;
    let good, bad =
      List.partition_map
        (fun (id, bad) -> if bad then Either.Right id else Either.Left id)
        ids
    in
    let new_pop = Population.add_batch pop0 ~good ~bad in
    (* The single overlay reconstruction of the whole batch. *)
    Sim.Metrics.incr metrics Sim.Metrics.overlay_rebuilds;
    let new_overlay = overlay0.Overlay.Overlay_intf.rebuild (Population.ring new_pop) in
    let confused =
      List.sort_uniq Point.compare (!new_confused @ Group_graph.confused_leaders g)
    in
    (* The old IDs keep their relative order on the new ring, so the
       old groups fill the ranks no newcomer holds, in rank order. *)
    let new_ring = Population.ring new_pop in
    let old_rank = ref 0 in
    let groups =
      Array.init (Ring.cardinal new_ring) (fun r ->
          match Hashtbl.find_opt new_groups (Ring.nth new_ring r) with
          | Some grp -> grp
          | None ->
              incr old_rank;
              Group_graph.group_at g (!old_rank - 1))
    in
    let g' =
      Group_graph.assemble ~params ~population:new_pop ~overlay:new_overlay ~groups
        ~confused ()
    in
    let cost =
      {
        searches = !searches;
        messages =
          Sim.Metrics.found
            (Sim.Metrics.diff (Sim.Metrics.snapshot metrics) before)
            Sim.Metrics.msg_membership;
        affected_groups = !affected;
        member_updates = !member_updates;
      }
    in
    Log.debug (fun m ->
        m "join_many: %d newcomers, %d searches, %d msgs, %d captured groups"
          (List.length ids) cost.searches cost.messages cost.affected_groups);
    (g', cost)
  end

let depart_many g ~ids =
  let pop = Group_graph.population g in
  let ring0 = Population.ring pop in
  (* Departing key -> batch position: sized to the batch (a
     fixed-capacity table rehashes repeatedly at stress-tier batch
     sizes) and carrying the index so the one-pass group sweep below
     can replay the fold's drop order. *)
  let seen = Hashtbl.create (max 16 (List.length ids)) in
  List.iteri
    (fun j id ->
      if (not (Ring.mem id ring0)) || Hashtbl.mem seen id then
        invalid_arg "Dynamic.depart_many: unknown ID";
      Hashtbl.add seen id j)
    ids;
  if ids = [] then (g, no_cost)
  else begin
    let params = Group_graph.params g in
    let overlay0 = Group_graph.overlay g in
    (* Reverse neighbours null their link to each departing group. *)
    let affected =
      List.fold_left
        (fun acc id ->
          acc
          + List.length
              (linking_to ~neighbors:overlay0.Overlay.Overlay_intf.neighbors ring0 ~id))
        0 ids
    in
    (* One merged ring pass and one overlay rebuild for the whole
       batch — the point of batching; the fold of one-ID batches pays
       both k times. *)
    let new_pop = Population.remove_batch pop ids in
    let new_overlay = overlay0.Overlay.Overlay_intf.rebuild (Population.ring new_pop) in
    (* Replay the membership drops exactly as the fold of one-ID
       batches would: the drop for the j-th departure classifies
       against n_hint = n - j - 1, and departed leaders leave the
       surviving groups in place, so the assembled graph is
       identical to the fold's — including its rank order.

       One pass over the groups instead of one pass per departure:
       groups are independent under drops (each drop touches only the
       group it is applied to), so per group it suffices to find its
       departing members (a [seen] probe per member) and apply their
       drops in batch order with the fold's n_hint. The fold's
       observable edge cases carry over verbatim — a drop that would
       empty the group returns [None] and leaves the group unchanged,
       after which later departures still see the original member set,
       exactly as the repeated-scan version did. This replaces an
       O(k*n) sweep (k departures x n-element list rebuilds, the
       dominant cost of a stress-tier churn batch) with O(n*|G|). *)
    let member_updates = ref 0 in
    let n0 = Population.n pop in
    let drop_departed grp =
      let hits = ref [] in
      Array.iter
        (fun m ->
          match Hashtbl.find_opt seen m with
          | Some j -> hits := (j, m) :: !hits
          | None -> ())
        grp.Group.members;
      List.fold_left
        (fun grp (j, m) ->
          incr member_updates;
          match Group.drop_member params ~n_hint:(n0 - j - 1) grp m with
          | Some grp' -> grp'
          | None -> grp)
        grp
        (List.sort (fun (a, _) (b, _) -> Int.compare a b) !hits)
    in
    (* The survivors keep their relative order on the new ring: rank
       r of the new ring is the r-th old rank whose leader stays. *)
    let old_rank = ref 0 in
    let groups =
      Array.init (Population.n new_pop) (fun _ ->
          while Hashtbl.mem seen (Ring.nth ring0 !old_rank) do
            incr old_rank
          done;
          incr old_rank;
          drop_departed (Group_graph.group_at g (!old_rank - 1)))
    in
    let confused =
      List.filter
        (fun w -> not (Hashtbl.mem seen w))
        (Group_graph.confused_leaders g)
    in
    let g' =
      Group_graph.assemble ~params ~population:new_pop ~overlay:new_overlay ~groups
        ~confused ()
    in
    ( g',
      {
        searches = 0;
        messages = 0;
        affected_groups = affected;
        member_updates = !member_updates;
      } )
  end
