open Idspace

let tombstone = "\x00<deleted>"

type record = {
  mutable version : int;  (* latest version ever written *)
  mutable value : string;  (* latest written value (ground truth) *)
  mutable replica : Replica.t;  (* live per-member states at the home group *)
}

type op_stats = { hops : int; route_cached : bool }

type t = {
  oracle : Hashing.Oracle.t;
  graph : Tinygroups.Group_graph.t;
  records : (string, record) Hashtbl.t;
  cache : (string, Tinygroups.Group.t) Hashtbl.t option;
      (* name -> home group; valid for this [graph] only (the graph
         is immutable within an epoch, so entries cannot go stale —
         [rehome] starts a fresh store with an empty cache). A hit
         needs no leader lookup. *)
  metrics : Sim.Metrics.t;
  epoch_index : int;
  mutable last : op_stats;
}

let create ?metrics ?(route_cache = true) ~system_key graph =
  {
    oracle = Hashing.Oracle.make ~system_key ~label:"kvstore-keys";
    graph;
    records = Hashtbl.create 256;
    cache = (if route_cache then Some (Hashtbl.create 256) else None);
    metrics = (match metrics with Some m -> m | None -> Sim.Metrics.create ());
    epoch_index = 0;
    last = { hops = 0; route_cached = false };
  }

let graph t = t.graph
let epoch_index t = t.epoch_index
let metrics t = t.metrics
let last_op_stats t = t.last

let record_count t =
  Hashtbl.fold
    (fun _ r acc -> if String.equal r.value tombstone then acc else acc + 1)
    t.records 0

let names t =
  Hashtbl.fold
    (fun name r acc -> if String.equal r.value tombstone then acc else name :: acc)
    t.records []

let key_of t name = Point.of_u62 (Hashing.Oracle.query_string t.oracle name)

let ring t = Adversary.Population.ring (Tinygroups.Group_graph.population t.graph)

let home t name = Ring.successor_exn (ring t) (key_of t name)

let home_group t name =
  Tinygroups.Group_graph.group_at t.graph (Ring.successor_rank (ring t) (key_of t name))

let replica_for grp =
  let member_bad =
    Array.init (Tinygroups.Group.size grp) (fun i -> Tinygroups.Group.member_is_bad grp i)
  in
  Replica.create ~members:grp.Tinygroups.Group.members ~member_bad

type write_result =
  | Stored of { version : int; replicas : int; messages : int }
  | Write_blocked of { red_group : Point.t }

(* Resolve a name's home group: through the route cache when it
   holds the name (one direct all-members contact instead of the
   multi-hop secure walk — the client already knows who to talk to),
   else by secure routing, priming the cache on success. Cache hits
   skip the walk's red-group checks by design: the group itself still
   votes, so a lost majority surfaces at the operation layer. *)
type routed =
  | Route_ok of { home : Tinygroups.Group.t; messages : int; stats : op_stats }
  | Route_blocked of Point.t

let route t ~client ~name ~key =
  match Option.map (fun c -> Hashtbl.find_opt c name) t.cache with
  | Some (Some home) ->
      Sim.Metrics.incr t.metrics Sim.Metrics.kv_route_cache_hit;
      Route_ok
        {
          home;
          messages = Tinygroups.Group.size home;
          stats = { hops = 1; route_cached = true };
        }
  | Some None | None -> (
      Sim.Metrics.incr t.metrics Sim.Metrics.kv_route_cache_miss;
      let v = Tinygroups.Secure_route.verdict t.graph ~failure:`Majority ~src:client ~key in
      let owner = v.Tinygroups.Secure_route.stop in
      if not v.Tinygroups.Secure_route.ok then Route_blocked owner
      else begin
        let home = Tinygroups.Group_graph.group_of t.graph owner in
        Option.iter (fun c -> Hashtbl.replace c name home) t.cache;
        Route_ok
          {
            home;
            messages = v.Tinygroups.Secure_route.messages;
            stats = { hops = v.Tinygroups.Secure_route.hops; route_cached = false };
          }
      end)

let write_value t ~client ~name ~value =
  let key = key_of t name in
  match route t ~client ~name ~key with
  | Route_blocked red ->
      t.last <- { hops = 0; route_cached = false };
      Write_blocked { red_group = red }
  | Route_ok { home; messages = route_msgs; stats } ->
      t.last <- stats;
      let record =
        match Hashtbl.find_opt t.records name with
        | Some r -> r
        | None ->
            let r = { version = 0; value = tombstone; replica = replica_for home } in
            Hashtbl.replace t.records name r;
            r
      in
      let version = record.version + 1 in
      record.version <- version;
      record.value <- value;
      Replica.write record.replica ~version ~value;
      let size = Array.length (Replica.members record.replica) in
      let messages = route_msgs + (size * size) in
      Stored
        { version; replicas = Replica.good_fresh record.replica ~version; messages }

let put_as t ~client ~name ~value =
  if String.equal value tombstone then invalid_arg "Store.put: reserved value";
  write_value t ~client ~name ~value

let delete_as t ~client ~name = write_value t ~client ~name ~value:tombstone

type read_result =
  | Found of { value : string; version : int; repaired : int; messages : int }
  | Recovered of { value : string; version : int; repaired : int; messages : int }
  | Corrupted of { messages : int }
  | Not_found of { messages : int }
  | Read_blocked of { red_group : Point.t }

(* The client's filter over the members' votes: the (version, value)
   pair backed by a strict majority of the whole group, if any. *)
let majority_vote votes =
  let total = Array.length votes in
  let tally = Hashtbl.create 8 in
  Array.iter
    (function
      | Some pair ->
          Hashtbl.replace tally pair (1 + Option.value ~default:0 (Hashtbl.find_opt tally pair))
      | None -> ())
    votes;
  Hashtbl.fold
    (fun pair c best ->
      if 2 * c > total then
        match best with Some (_, bc) when bc >= c -> best | _ -> Some (pair, c)
      else best)
    tally None

let get_as t ~client ~name =
  let key = key_of t name in
  match route t ~client ~name ~key with
  | Route_blocked red ->
      t.last <- { hops = 0; route_cached = false };
      Read_blocked { red_group = red }
  | Route_ok { home; messages = route_msgs; stats } -> (
      t.last <- stats;
      let base_msgs grp_size = route_msgs + grp_size in
      match Hashtbl.find_opt t.records name with
      | None ->
          Not_found { messages = base_msgs (Tinygroups.Group.size home) }
      | Some record -> (
          let votes = Replica.read_votes record.replica ~truth_forge:"<forged>" in
          let size = Array.length votes in
          let messages = base_msgs size in
          match majority_vote votes with
          | Some ((version, value), _) ->
              (* Read repair: bring lagging good replicas up. *)
              let repaired = Replica.repair record.replica ~version ~value in
              let messages = messages + repaired in
              if String.equal value tombstone then Not_found { messages }
              else Found { value; version; repaired; messages }
          | None ->
              (* No live majority. The home group syncs internally:
                 possible iff it retains a good majority and at least
                 one good member still holds the latest version. *)
              let survivors = Replica.good_fresh record.replica ~version:record.version in
              if Tinygroups.Group.has_good_majority home && survivors >= 1 then begin
                let repaired =
                  Replica.repair record.replica ~version:record.version ~value:record.value
                in
                let messages = messages + (size * size) + repaired in
                if String.equal record.value tombstone then Not_found { messages }
                else
                  Recovered
                    { value = record.value; version = record.version; repaired; messages }
              end
              else Corrupted { messages }))

let degrade rng t ~loss_rate =
  Hashtbl.iter (fun _ r -> Replica.degrade rng r.replica ~loss_rate) t.records

let rehome t new_graph =
  Option.iter
    (fun _ -> Sim.Metrics.incr t.metrics Sim.Metrics.kv_route_cache_invalidated)
    t.cache;
  let fresh =
    {
      oracle = t.oracle;
      graph = new_graph;
      records = Hashtbl.create (max 256 (Hashtbl.length t.records));
      cache = Option.map (fun _ -> Hashtbl.create 256) t.cache;
      metrics = t.metrics;
      epoch_index = t.epoch_index + 1;
      last = { hops = 0; route_cached = false };
    }
  in
  Hashtbl.iter
    (fun name record ->
      let old_grp = home_group t name in
      let survivors = Replica.good_fresh record.replica ~version:record.version in
      let transferable =
        Tinygroups.Group.has_good_majority old_grp && survivors >= 1
      in
      let replica = replica_for (home_group fresh name) in
      if transferable then
        Replica.write replica ~version:record.version ~value:record.value;
      (* A non-transferable record keeps its name but every good
         replica is Missing: reads come back Corrupted. *)
      Hashtbl.replace fresh.records name
        { version = record.version; value = record.value; replica })
    t.records;
  fresh

let coverage rng t ~samples =
  if record_count t = 0 then invalid_arg "Store.coverage: empty store";
  if samples <= 0 then invalid_arg "Store.coverage: samples must be positive";
  let names = Array.of_list (names t) in
  let goods = Adversary.Population.good_ids (Tinygroups.Group_graph.population t.graph) in
  let ok = ref 0 in
  for _ = 1 to samples do
    let name = names.(Prng.Rng.int rng (Array.length names)) in
    let client = goods.(Prng.Rng.int rng (Array.length goods)) in
    match get_as t ~client ~name with
    | Found _ | Recovered _ -> incr ok
    | Corrupted _ | Not_found _ | Read_blocked _ -> ()
  done;
  float_of_int !ok /. float_of_int samples

(* --- Client sessions --------------------------------------------- *)

type client = {
  store : t;
  id : Point.t;
}

let connect t ~id = { store = t; id }
let put c ~name ~value = put_as c.store ~client:c.id ~name ~value
let get c ~name = get_as c.store ~client:c.id ~name
let delete c ~name = delete_as c.store ~client:c.id ~name
