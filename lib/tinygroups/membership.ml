open Idspace
open Adversary

type old_pair = {
  g1 : Group_graph.t;
  g2 : Group_graph.t option;
  failure : Secure_route.failure_notion;
}

let make_old_pair ?(failure = `Conservative) g1 g2 = { g1; g2; failure }

type resolution = Resolved of Point.t | Hijacked_lookup

let old_population pair = Group_graph.population pair.g1

let graphs pair = pair.g1 :: Option.to_list pair.g2

(* One search in one old graph; [src] must be a leader there. Returns
   whether the search escaped the adversary, charging its messages.
   An environmental fault (the conditions' injector) loses the whole
   request or response wave of this one search: no verifiable answer
   comes back from this graph, which the caller cannot distinguish
   from a hijack. The dual-graph redundancy then absorbs single
   losses the same way it absorbs single hijacks (q_f^2). The
   conditions' reliability tracker re-issues a lost wave up to its
   budget, each attempt drawing its own loss verdict from the
   injector — so only a whole budget of consecutive losses still
   reads as a hijack. *)
let one_search ~conds rng metrics graph ~failure ~src ~point =
  let { Sim.Conditions.injector; tracker } = conds in
  let delivered =
    Reliability.Tracker.with_retries tracker ~dst:point (fun () ->
        not (Faults.Injector.search_lost injector))
  in
  if not delivered then false
  else
  let src =
    match src with
    | Some s -> Some s
    | None -> Group_graph.random_blue_leader rng graph
  in
  match src with
  | None -> false (* no blue group anywhere: total adversary control *)
  | Some src ->
      let v = Secure_route.verdict graph ~failure ~src ~key:point in
      Sim.Metrics.add metrics Sim.Metrics.msg_membership v.Secure_route.messages;
      v.Secure_route.ok

(* Run one search per old graph from [pick_src graph] and count how
   many the adversary hijacked. *)
let hijack_count ~conds rng metrics pair ~pick_src ~point =
  List.fold_left
    (fun acc graph ->
      if
        one_search ~conds rng metrics graph ~failure:pair.failure
          ~src:(pick_src graph) ~point
      then acc
      else acc + 1)
    0 (graphs pair)

let dual_search ?(conditions = Sim.Conditions.inert) rng metrics pair ~point =
  let total = List.length (graphs pair) in
  let hijacked =
    hijack_count ~conds:conditions rng metrics pair ~pick_src:(fun _ -> None) ~point
  in
  if hijacked = total then Hijacked_lookup
  else Resolved (Ring.successor_exn (Population.ring (old_population pair)) point)

(* The verifier searches from its own group when it leads one in the
   old graphs, otherwise from its bootstrap group. *)
let verifier_src graph verifier =
  if Ring.mem verifier (Population.ring (Group_graph.population graph)) then Some verifier
  else None

let verification_search ?(conditions = Sim.Conditions.inert) rng metrics pair
    ~verifier ~point =
  let total = List.length (graphs pair) in
  let hijacked =
    hijack_count ~conds:conditions rng metrics pair
      ~pick_src:(fun g -> verifier_src g verifier)
      ~point
  in
  hijacked < total

(* The adversary's most credible lie after a fully hijacked lookup:
   its own ID nearest clockwise of the point. *)
let adversary_plant pair ~point =
  let bad_ring = Population.bad_ring (old_population pair) in
  if Ring.cardinal bad_ring = 0 then None
  else Some (Ring.successor_exn bad_ring point)

let solicit_member ?(conditions = Sim.Conditions.inert) rng metrics pair ~point =
  match dual_search ~conditions rng metrics pair ~point with
  | Hijacked_lookup -> (
      match adversary_plant pair ~point with
      | Some plant -> Some plant
      | None ->
          (* No bad IDs exist, so no search can actually have been
             hijacked; resolve honestly. *)
          Some (Ring.successor_exn (Population.ring (old_population pair)) point))
  | Resolved m ->
      if Population.is_bad (old_population pair) m then Some m
        (* Bad IDs gladly join any group. *)
      else if verification_search ~conditions rng metrics pair ~verifier:m ~point
      then Some m
      else None

let establish_neighbor ?(conditions = Sim.Conditions.inert) rng metrics pair
    ~target =
  match dual_search ~conditions rng metrics pair ~point:target with
  | Hijacked_lookup -> false
  | Resolved _ ->
      verification_search ~conditions rng metrics pair ~verifier:target
        ~point:target

let request_searches = 4

let form_group ?(conditions = Sim.Conditions.inert) rng metrics pair ~now ~params
    ~member_oracle ~ring ~leader ~neighbors =
  let injector = conditions.Sim.Conditions.injector in
  let crashed m = Faults.Injector.crashed injector ~now m in
  let severed u = Faults.Injector.severed injector ~now ~src:(Some leader) ~dst:u in
  let searches = ref 0 in
  let draws =
    Params.member_draws_estimated params
      ~ln_ln_estimate:(Estimate.ln_ln_n ring leader)
  in
  let members = ref [] in
  for i = 1 to draws do
    let point =
      Point.of_int (Hashing.Oracle.draw_indexed member_oracle (leader :> int) i)
    in
    searches := !searches + request_searches;
    (* Environmental faults apply per individual search inside the
       dual protocol; a member that is crashed right now additionally
       cannot answer the solicitation. *)
    match solicit_member ~conditions rng metrics pair ~point with
    | Some m when crashed m -> Sim.Metrics.incr metrics Sim.Metrics.fault_suppressed
    | Some m -> members := m :: !members
    | None -> ()
  done;
  (* A group that lost every member draw cannot operate: the leader
     stands alone and the group is surely not good. *)
  let members =
    if !members = [] then begin
      Sim.Metrics.incr metrics Sim.Metrics.group_lone_leader;
      [ leader ]
    end
    else !members
  in
  let grp = Group.form params (old_population pair) ~leader ~members in
  let linked =
    List.for_all
      (fun u ->
        (not (severed u))
        && (searches := !searches + request_searches;
            establish_neighbor ~conditions rng metrics pair ~target:u))
      neighbors
  in
  (grp, linked, !searches)

let spam_accepted ?(conditions = Sim.Conditions.inert) rng metrics pair ~victim =
  (* A bogus request names a point that does not map to the victim;
     the honest answer is a rejection, so acceptance requires at
     least one hijacked verification search parroting the spam. *)
  let point = Point.random rng in
  let hijacked =
    hijack_count ~conds:conditions rng metrics pair
      ~pick_src:(fun g -> verifier_src g victim)
      ~point
  in
  hijacked >= 1

let bootstrap_pool rng graph ~count =
  let leaders = Group_graph.leaders graph in
  if Array.length leaders = 0 then invalid_arg "Membership.bootstrap_pool: empty graph";
  let module Pset = Set.Make (struct
    type t = Point.t

    let compare = Point.compare
  end) in
  let pool = ref Pset.empty in
  for _ = 1 to count do
    let leader = leaders.(Prng.Rng.int rng (Array.length leaders)) in
    let g = Group_graph.group_of graph leader in
    Array.iter (fun m -> pool := Pset.add m !pool) g.Group.members
  done;
  let ids = Array.of_list (Pset.elements !pool) in
  let pop = Group_graph.population graph in
  let bad = Array.fold_left (fun acc m -> if Population.is_bad pop m then acc + 1 else acc) 0 ids in
  (ids, 2 * bad < Array.length ids)
