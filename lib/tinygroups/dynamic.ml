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
   j, plus id's ring neighbours. The generic filter against the
   overlay's own neighbour function keeps this sound for any
   construction (it may under-enumerate for other rules, e.g. the
   halving links of distance halving; Chord and Chord++ are covered
   exactly). *)
let capture_candidates ring ~id =
  let pred = match Ring.predecessor ring id with Some p -> p | None -> id in
  let acc = ref [] in
  let add v = if not (Point.equal v id) then acc := v :: !acc in
  add pred;
  (match Ring.strict_successor ring id with Some s -> add s | None -> ());
  for j = 0 to 61 do
    let stride = Int64.shift_left 1L j in
    (* v in (pred - 2^j, id - 2^j]: walk the arc. *)
    let from = Point.add_cw pred (Int64.sub Point.modulus stride) in
    let until = Point.add_cw id (Int64.sub Point.modulus stride) in
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

let captured_by g ~id =
  let pop = Group_graph.population g in
  let ring = Ring.add id (Population.ring pop) in
  let overlay = Group_graph.overlay g in
  List.filter
    (fun v ->
      Ring.mem v (Population.ring pop)
      && List.exists (Point.equal id) (overlay.Overlay.Overlay_intf.neighbors_in ring v))
    (capture_candidates ring ~id)

let existing_groups g =
  Array.to_list
    (Array.map (fun w -> (w, Group_graph.group_of g w)) (Group_graph.leaders g))

(* One newcomer's join protocol against [ring] (the population plus
   the batch's earlier newcomers plus [id] itself), verified by the
   groups already present in [prev_ring]:

   1. solicit members for the newcomer's group through the old graphs
      (each solicitation is up to four routed searches: a dual lookup
      plus the solicited ID's dual verification);
   2. establish the newcomer's neighbour links;
   3. existing groups that must now link to the newcomer verify the
      update; a failed verification leaves that group confused.

   The newcomer's stream is keyed on its identity —
   [of_subkey (bits64 rng) id] with the base drawn at the ID's turn —
   so a batch and the fold of single joins consume [rng] identically
   (one base draw per ID, in batch order) and every per-ID draw
   sequence matches exactly; the join_many ≡ fold law in the test
   suite holds by construction. All overlay queries go through the
   overlay's memo-free [neighbors_in], so this never rebuilds a view. *)
let join_one rng metrics ~params ~old_pair ~member_oracle ~overlay ~prev_ring
    ~ring ~searches ~id =
  let idrng = Prng.Rng.of_subkey (Prng.Rng.bits64 rng) (Point.to_u62 id) in
  let draws =
    Params.member_draws_estimated params
      ~ln_ln_estimate:(Estimate.ln_ln_n ring id)
  in
  let members = ref [] in
  for i = 1 to draws do
    let point =
      Point.of_u62 (Hashing.Oracle.query_indexed member_oracle (Point.to_u62 id) i)
    in
    searches := !searches + 4;
    match Membership.solicit_member idrng metrics old_pair ~point with
    | Some m -> members := m :: !members
    | None -> ()
  done;
  (* A newcomer that lost every member draw leads alone — surely not
     good; counted like the epoch transition's fallback. *)
  let members =
    if !members = [] then begin
      Sim.Metrics.incr metrics Sim.Metrics.group_lone_leader;
      [ id ]
    end
    else !members
  in
  let old_member_pop = Group_graph.population Membership.(old_pair.g1) in
  let grp = Group.form params old_member_pop ~leader:id ~members in
  let ok =
    List.for_all
      (fun u ->
        searches := !searches + 4;
        Membership.establish_neighbor idrng metrics old_pair ~target:u)
      (overlay.Overlay.Overlay_intf.neighbors_in ring id)
  in
  let captured =
    List.filter
      (fun v ->
        Ring.mem v prev_ring
        && List.exists (Point.equal id) (overlay.Overlay.Overlay_intf.neighbors_in ring v))
      (capture_candidates ring ~id)
  in
  let newly_confused =
    List.filter
      (fun _ ->
        searches := !searches + 4;
        not (Membership.establish_neighbor idrng metrics old_pair ~target:id))
      captured
  in
  (grp, ok, captured, newly_confused)

let join rng metrics g ~old_pair ~member_oracle ~id ~bad =
  let pop = Group_graph.population g in
  if Ring.mem id (Population.ring pop) then invalid_arg "Dynamic.join: ID already present";
  let params = Group_graph.params g in
  let new_pop = if bad then Population.add_bad pop id else Population.add_good pop id in
  let new_ring = Population.ring new_pop in
  let before = Sim.Metrics.snapshot metrics in
  let searches = ref 0 in
  let grp, ok, captured, newly_confused =
    join_one rng metrics ~params ~old_pair ~member_oracle
      ~overlay:(Group_graph.overlay g) ~prev_ring:(Population.ring pop)
      ~ring:new_ring ~searches ~id
  in
  let confused =
    (if ok then [] else [ id ]) @ newly_confused @ Group_graph.confused_leaders g
  in
  let groups = (id, grp) :: existing_groups g in
  (* The single overlay reconstruction of this join. *)
  Sim.Metrics.incr metrics Sim.Metrics.overlay_rebuilds;
  let new_overlay = (Group_graph.overlay g).Overlay.Overlay_intf.rebuild new_ring in
  let g' =
    Group_graph.assemble ~params ~population:new_pop ~overlay:new_overlay ~groups
      ~confused:(List.sort_uniq Point.compare confused) ()
  in
  let cost =
    {
      searches = !searches;
      messages =
        Sim.Metrics.found
          (Sim.Metrics.diff (Sim.Metrics.snapshot metrics) before)
          Sim.Metrics.msg_membership;
      affected_groups = List.length captured;
      member_updates = Group.size grp;
    }
  in
  Log.debug (fun m ->
      m "join %a: %d searches, %d msgs, %d captured groups, group size %d" Point.pp id
        cost.searches cost.messages cost.affected_groups (Group.size grp));
  (g', cost)

let join_many rng metrics g ~old_pair ~member_oracle ~ids =
  let pop0 = Group_graph.population g in
  let ring0 = Population.ring pop0 in
  let seen = Hashtbl.create (max 16 (List.length ids)) in
  List.iter
    (fun (id, _) ->
      if Ring.mem id ring0 || Hashtbl.mem seen (Point.to_key id) then
        invalid_arg "Dynamic.join: ID already present";
      Hashtbl.add seen (Point.to_key id) ())
    ids;
  if ids = [] then (g, { searches = 0; messages = 0; affected_groups = 0; member_updates = 0 })
  else begin
    let params = Group_graph.params g in
    let overlay0 = Group_graph.overlay g in
    let before = Sim.Metrics.snapshot metrics in
    let searches = ref 0 and affected = ref 0 and member_updates = ref 0 in
    let new_groups = ref [] and new_confused = ref [] in
    (* Replay the per-ID protocol exactly as the one-at-a-time fold
       would — the j-th newcomer estimates, links and is verified
       against the ring holding the first j-1 newcomers, with the
       identity-keyed draw discipline of {!join_one} — but keep only
       the growing ring: the intermediate populations, group lists and
       graph assemblies of the fold are never built, and every overlay
       query goes through the memo-free [neighbors_in]. Joins never
       modify existing groups, so the batch pays one {!Ring.add} per
       newcomer — which copies only the ring's small delta of added
       points, not the whole ring — plus a single final population
       merge, overlay rebuild and assembly: O(1) rebuilds, like
       {!depart_many}. *)
    let ring = ref ring0 in
    List.iter
      (fun (id, _bad) ->
        let prev_ring = !ring in
        let new_ring = Ring.add id prev_ring in
        ring := new_ring;
        let grp, ok, captured, newly_confused =
          join_one rng metrics ~params ~old_pair ~member_oracle ~overlay:overlay0
            ~prev_ring ~ring:new_ring ~searches ~id
        in
        if not ok then new_confused := id :: !new_confused;
        new_confused := newly_confused @ !new_confused;
        new_groups := (id, grp) :: !new_groups;
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
    let groups = !new_groups @ existing_groups g in
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

let depart g ~id =
  let pop = Group_graph.population g in
  if not (Ring.mem id (Population.ring pop)) then invalid_arg "Dynamic.depart: unknown ID";
  let params = Group_graph.params g in
  (* Reverse neighbours null their link to the departing group. *)
  let reverse =
    List.filter
      (fun v ->
        (not (Point.equal v id))
        && List.exists (Point.equal id) ((Group_graph.overlay g).Overlay.Overlay_intf.neighbors v))
      (capture_candidates (Population.ring pop) ~id)
  in
  let new_pop = Population.remove pop id in
  let new_ring = Population.ring new_pop in
  let new_overlay = (Group_graph.overlay g).Overlay.Overlay_intf.rebuild new_ring in
  let n_hint = Population.n new_pop in
  (* Groups containing the departing ID lose a member. *)
  let member_updates = ref 0 in
  let groups =
    List.filter_map
      (fun (w, grp) ->
        if Point.equal w id then None
        else if Group.contains grp id then begin
          incr member_updates;
          match Group.drop_member params ~n_hint grp id with
          | Some grp' -> Some (w, grp')
          | None -> Some (w, grp) (* a group never empties below one member *)
        end
        else Some (w, grp))
      (existing_groups g)
  in
  let confused =
    List.filter (fun w -> not (Point.equal w id)) (Group_graph.confused_leaders g)
  in
  let g' =
    Group_graph.assemble ~params ~population:new_pop ~overlay:new_overlay ~groups
      ~confused ()
  in
  let cost =
    {
      searches = 0;
      messages = 0;
      affected_groups = List.length reverse;
      member_updates = !member_updates;
    }
  in
  (g', cost)

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
      if (not (Ring.mem id ring0)) || Hashtbl.mem seen (Point.to_key id) then
        invalid_arg "Dynamic.depart: unknown ID";
      Hashtbl.add seen (Point.to_key id) j)
    ids;
  if ids = [] then (g, { searches = 0; messages = 0; affected_groups = 0; member_updates = 0 })
  else begin
    let params = Group_graph.params g in
    let overlay0 = Group_graph.overlay g in
    let affected =
      List.fold_left
        (fun acc id ->
          acc
          + List.length
              (List.filter
                 (fun v ->
                   (not (Point.equal v id))
                   && List.exists (Point.equal id) (overlay0.Overlay.Overlay_intf.neighbors v))
                 (capture_candidates ring0 ~id)))
        0 ids
    in
    (* One merged ring pass and one overlay rebuild for the whole
       batch — the point of batching; the per-ID fold pays both k
       times. *)
    let new_pop = Population.remove_batch pop ids in
    let new_overlay = overlay0.Overlay.Overlay_intf.rebuild (Population.ring new_pop) in
    (* Replay the membership drops exactly as the one-at-a-time fold
       would: the drop for the j-th departure classifies against
       n_hint = n - j - 1, and departed leaders leave the (ascending)
       group list in place, so the assembled graph is identical to
       folding {!depart} — including its iteration order.

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
    let groups =
      List.filter_map
        (fun (w, grp) ->
          if Hashtbl.mem seen (Point.to_key w) then None
          else begin
            let hits = ref [] in
            Array.iter
              (fun m ->
                match Hashtbl.find_opt seen (Point.to_key m) with
                | Some j -> hits := (j, m) :: !hits
                | None -> ())
              grp.Group.members;
            match !hits with
            | [] -> Some (w, grp)
            | hits ->
                let hits =
                  List.sort (fun (a, _) (b, _) -> Int.compare a b) hits
                in
                let grp =
                  List.fold_left
                    (fun grp (j, m) ->
                      incr member_updates;
                      match Group.drop_member params ~n_hint:(n0 - j - 1) grp m with
                      | Some grp' -> grp'
                      | None -> grp)
                    grp hits
                in
                Some (w, grp)
          end)
        (existing_groups g)
    in
    let confused =
      List.filter
        (fun w -> not (Hashtbl.mem seen (Point.to_key w)))
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
