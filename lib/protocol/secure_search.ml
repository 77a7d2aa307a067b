open Idspace
open Adversary

type behaviour = Silent | Colluding

type outcome = {
  result : [ `Resolved of Point.t | `Hijacked of Point.t | `Timeout ];
  latency_ms : int;
  messages : int;
}

(* Per-member quorum bookkeeping for one query: distinct senders of
   identical (stage, key) copies, and whether we already acted. *)
type quorum = {
  mutable senders : Point.t list;
  mutable acted : bool;
}

(* Reply bookkeeping at the client: per claimed responsible ID, the
   distinct responders and arrival times. *)
type bucket = {
  mutable count : int;
  mutable arrivals : int list;  (* reversed arrival times *)
}

let run_search rng g ~latency ~behaviour ~src ~key ?(deadline = 60_000)
    ?conditions ?metrics () =
  let overlay = Tinygroups.Group_graph.overlay g in
  let pop = Tinygroups.Group_graph.population g in
  (* The adversary's best verifiable claim: its own ID nearest
     clockwise of the key — any other forgery fails the client's PoW
     check (IDs are verifiable, §I-C). *)
  let plant =
    let bad_ring = Population.bad_ring pop in
    if Ring.cardinal bad_ring = 0 then None
    else Some (Ring.successor_exn bad_ring key)
  in
  let net =
    Network.create ?conditions ?metrics
      ~size:(2 * Tinygroups.Group_graph.n_groups g)
      (Prng.Rng.split rng) ~latency
  in
  let qid = 1 in
  (* The client is a synthetic address off the ring. *)
  let client = Point.zero in
  let buckets : (Point.t, bucket) Hashtbl.t = Hashtbl.create 8 in
  let reply_handler _net ~now msg =
    match msg with
    | Message.Search_reply r when r.Message.qid = qid ->
        let k = r.Message.responsible in
        let b =
          match Hashtbl.find_opt buckets k with
          | Some b -> b
          | None ->
              let b = { count = 0; arrivals = [] } in
              Hashtbl.add buckets k b;
              b
        in
        b.count <- b.count + 1;
        b.arrivals <- now :: b.arrivals
    | Message.Search_reply _ | Message.Search_request _ -> ()
  in
  Network.register net client reply_handler;
  (* Member handlers. *)
  let group_of leader = Tinygroups.Group_graph.group_of g leader in
  let members_of leader = (group_of leader).Tinygroups.Group.members in
  let forward_to_stage net ~from_member ~from_group stage key =
    let from_count = Tinygroups.Group.size (group_of from_group) in
    Array.iter
      (fun m ->
        Network.send ~src:from_member net ~to_:m
          (Message.Search_request
             {
               Message.qid;
               key;
               stage;
               client;
               sender_member = Some from_member;
               sender_group = Some from_group;
               sender_count = from_count;
             }))
      (members_of stage)
  in
  let act_on_quorum net member (r : Message.search_request) =
    (* This member, acting for stage group [r.stage], either forwards
       to the next group on the path or answers the client. *)
    let path = overlay.Overlay.Overlay_intf.route ~src:r.Message.stage ~key:r.Message.key in
    match path with
    | [] | [ _ ] ->
        (* The stage group is responsible: answer the client. *)
        Network.send ~src:member net ~to_:client
          (Message.Search_reply
             {
               Message.qid;
               responsible = r.Message.stage;
               responder_count = Tinygroups.Group.size (group_of r.Message.stage);
             })
    | _ :: next :: _ ->
        forward_to_stage net ~from_member:member ~from_group:r.Message.stage next
          r.Message.key
  in
  (* A good member waits for a strict majority of distinct senders
     before acting; a colluding bad member acts immediately and
     dishonestly. *)
  let register_member member =
    let quorums : (Point.t * Point.t, quorum) Hashtbl.t = Hashtbl.create 8 in
    let bad = Population.is_bad pop member in
    let handler net ~now:_ msg =
      match msg with
      | Message.Search_reply _ -> ()
      | Message.Search_request r when r.Message.qid <> qid -> ()
      | Message.Search_request r -> (
          (* Only act in a group we actually belong to. *)
          if not (Tinygroups.Group.contains (group_of r.Message.stage) member) then ()
          else if bad then begin
            match behaviour with
            | Silent -> ()
            | Colluding -> (
                let k = (r.Message.stage, r.Message.key) in
                match Hashtbl.find_opt quorums k with
                | Some _ -> ()
                | None ->
                    Hashtbl.add quorums k { senders = []; acted = true };
                    (* Corrupt the key mid-route and flood the client
                       with the collusion target. *)
                    let forged = Point.add_cw r.Message.key (1 lsl 40) in
                    let path =
                      overlay.Overlay.Overlay_intf.route ~src:r.Message.stage
                        ~key:forged
                    in
                    (match path with
                    | _ :: next :: _ ->
                        forward_to_stage net ~from_member:member
                          ~from_group:r.Message.stage next forged
                    | _ -> ());
                    match plant with
                    | Some p ->
                        Network.send ~src:member net ~to_:client
                          (Message.Search_reply
                             {
                               Message.qid;
                               responsible = p;
                               responder_count = 3;
                             })
                    | None -> ())
          end
          else begin
            let k = (r.Message.stage, r.Message.key) in
            let q =
              match Hashtbl.find_opt quorums k with
              | Some q -> q
              | None ->
                  let q = { senders = []; acted = false } in
                  Hashtbl.add quorums k q;
                  q
            in
            let sender = Option.value r.Message.sender_member ~default:client in
            if not (List.mem sender q.senders) then q.senders <- sender :: q.senders;
            let quorum_needed = (r.Message.sender_count / 2) + 1 in
            if (not q.acted) && List.length q.senders >= quorum_needed then begin
              q.acted <- true;
              act_on_quorum net member r
            end
          end)
    in
    Network.register net member handler
  in
  (* Register every distinct member of every group once. [registered]
     is only probed (mem/add), never iterated, so sizing it for the
     ~n distinct members avoids repeated rehashing at large n without
     any digest exposure. *)
  let registered = Hashtbl.create (2 * Tinygroups.Group_graph.n_groups g) in
  Tinygroups.Group_graph.iter_groups
    (fun _ (grp : Tinygroups.Group.t) ->
      Array.iter
        (fun m ->
          if not (Hashtbl.mem registered m) then begin
            Hashtbl.add registered m ();
            register_member m
          end)
        grp.Tinygroups.Group.members)
    g;
  (* Fire the query into the source group and run the world. *)
  Array.iter
    (fun m ->
      Network.send net ~to_:m
        (Message.Search_request
           {
             Message.qid;
             key;
             stage = src;
             client;
             sender_member = None;
             sender_group = None;
             sender_count = 1;
           }))
    (members_of src);
  Network.run ~deadline net;
  (* The client's verdict (paper §I-C + §III-A): only verifiable
     claims count — the responsible must be a real ID (PoW-checkable)
     — a claim needs at least 2 identical copies, and among surviving
     claims the successor rule applies: the one nearest clockwise of
     the key wins. *)
  let winner =
    Hashtbl.fold
      (fun candidate b best ->
        if b.count < 2 || not (Ring.mem candidate (Population.ring pop)) then best
        else begin
          let d = Point.distance_cw key candidate in
          match best with
          | Some (_, _, _, bd) when bd <= d -> best
          | _ -> Some (candidate, b.count, b, d)
        end)
      buckets None
  in
  let truth = Ring.successor_exn (Population.ring pop) key in
  match winner with
  | Some (value, count, b, _) ->
      let arrivals = List.sort compare b.arrivals in
      let latency_ms =
        match List.nth_opt arrivals (((count + 1) / 2) - 1) with
        | Some t -> t
        | None -> Network.now net
      in
      {
        result =
          (if Point.equal value truth then `Resolved value else `Hijacked value);
        latency_ms;
        messages = Network.messages_sent net;
      }
  | _ ->
      { result = `Timeout; latency_ms = deadline; messages = Network.messages_sent net }
