open Idspace
open Adversary

type search_report = {
  samples : int;
  successes : int;
  success_rate : float;
  ci : Stats.Ci.interval;
  mean_messages : float;
  mean_group_hops : float;
}

(* Ascending ring order; the PRNG-indexed layout is digest-relevant
   (see [Population.good_ids]). *)
let good_leaders g = Population.good_ids (Group_graph.population g)

let search_success rng g ~failure ~samples =
  if samples <= 0 then invalid_arg "Robustness.search_success";
  let sources = good_leaders g in
  if Array.length sources = 0 then invalid_arg "Robustness.search_success: no good IDs";
  let successes = ref 0 and messages = ref 0 and hops = ref 0 in
  for _ = 1 to samples do
    let src = sources.(Prng.Rng.int rng (Array.length sources)) in
    let key = Point.random rng in
    let v = Secure_route.verdict g ~failure ~src ~key in
    if v.Secure_route.ok then incr successes;
    messages := !messages + v.Secure_route.messages;
    hops := !hops + v.Secure_route.hops
  done;
  {
    samples;
    successes = !successes;
    success_rate = float_of_int !successes /. float_of_int samples;
    ci = Stats.Ci.wilson95 ~successes:!successes ~trials:samples;
    mean_messages = float_of_int !messages /. float_of_int samples;
    mean_group_hops = float_of_int !hops /. float_of_int samples;
  }

type id_coverage = {
  ids_sampled : int;
  keys_per_id : int;
  threshold : float;
  covered_ids : int;
  covered_fraction : float;
  per_id_rates : float array;
}

let id_coverage rng g ~failure ~ids ~keys ~threshold =
  if ids <= 0 || keys <= 0 then invalid_arg "Robustness.id_coverage";
  let sources = good_leaders g in
  if Array.length sources = 0 then invalid_arg "Robustness.id_coverage: no good IDs";
  let ids = min ids (Array.length sources) in
  let picks = Prng.Rng.sample_without_replacement rng ids (Array.length sources) in
  let rates =
    Array.map
      (fun i ->
        let src = sources.(i) in
        let ok = ref 0 in
        for _ = 1 to keys do
          let key = Point.random rng in
          if (Secure_route.verdict g ~failure ~src ~key).Secure_route.ok then incr ok
        done;
        float_of_int !ok /. float_of_int keys)
      picks
  in
  let covered = Array.fold_left (fun acc r -> if r >= 1. -. threshold then acc + 1 else acc) 0 rates in
  {
    ids_sampled = ids;
    keys_per_id = keys;
    threshold;
    covered_ids = covered;
    covered_fraction = float_of_int covered /. float_of_int ids;
    per_id_rates = rates;
  }

type departure_report = {
  groups : int;
  survived : int;
  survival_rate : float;
}

let departures_survival rng g ~fraction =
  if fraction < 0. || fraction > 1. then invalid_arg "Robustness.departures_survival";
  let groups = ref 0 and survived = ref 0 in
  (* Ring iteration order: the PRNG draws below happen per good
     group in visit order, so the order is digest-relevant. *)
  Group_graph.iter_groups
    (fun _ (grp : Group.t) ->
      if grp.Group.health = Group.Good then begin
        incr groups;
        (* Each good member independently departs with the given
           probability; bad members stay (the adversary never helps). *)
        let size = Group.size grp in
        let remaining_good = ref 0 in
        Array.iteri
          (fun i _ ->
            if not (Group.member_is_bad grp i) then
              if not (Prng.Rng.bernoulli rng fraction) then incr remaining_good)
          grp.Group.members;
        let departed = Group.good_members grp - !remaining_good in
        let remaining_size = size - departed in
        if remaining_size > 0 && 2 * !remaining_good > remaining_size then incr survived
      end)
    g;
  {
    groups = !groups;
    survived = !survived;
    survival_rate = (if !groups = 0 then 1. else float_of_int !survived /. float_of_int !groups);
  }

type state_report = {
  per_id_links : Stats.Descriptive.summary;
  per_id_memberships : Stats.Descriptive.summary;
}

let state_costs g =
  let { Overlay.Overlay_intf.off; adj; _ } = Group_graph.overlay g in
  (* Per-group cost borne by each of its members, by rank: intra-group
     links plus all-to-all links toward every neighbouring group (the
     overlay's table row, whose ranks are the graph's). *)
  let group_cost =
    Array.init (Group_graph.n_groups g) (fun r ->
        let cost = ref (Group.size (Group_graph.group_at g r) - 1) in
        for i = off.(r) to off.(r + 1) - 1 do
          cost := !cost + Group.size (Group_graph.group_at g (Overlay.Overlay_intf.table_get adj i))
        done;
        !cost)
  in
  let links : (Point.t, int) Hashtbl.t = Hashtbl.create 4096 in
  let memberships : (Point.t, int) Hashtbl.t = Hashtbl.create 4096 in
  (* Ring order again: the [replace] sequence fixes the fold order
     of [links]/[memberships] below, which feeds the summaries. *)
  Array.iteri
    (fun r cost ->
      let grp = Group_graph.group_at g r in
      Array.iteri
        (fun i m ->
          if not (Group.member_is_bad grp i) then begin
            Hashtbl.replace links m (cost + Option.value ~default:0 (Hashtbl.find_opt links m));
            Hashtbl.replace memberships m
              (1 + Option.value ~default:0 (Hashtbl.find_opt memberships m))
          end)
        grp.Group.members)
    group_cost;
  (* The population summarised is the set of good IDs that serve in at
     least one group — in an epoch-built graph the member population
     (the previous epoch's IDs) is distinct from the leader
     population, so the groups themselves are the source of truth. *)
  let link_samples =
    Array.of_list (Hashtbl.fold (fun _ c acc -> float_of_int c :: acc) links [])
  in
  let membership_samples =
    Array.of_list (Hashtbl.fold (fun _ c acc -> float_of_int c :: acc) memberships [])
  in
  {
    per_id_links = Stats.Descriptive.summarize link_samples;
    per_id_memberships = Stats.Descriptive.summarize membership_samples;
  }
