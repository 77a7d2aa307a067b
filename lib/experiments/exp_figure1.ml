open Idspace

let describe_group graph w =
  let grp = Tinygroups.Group_graph.group_of graph w in
  let color =
    if Tinygroups.Group_graph.hijacked graph w then "RED [B]"
    else
      match Tinygroups.Group_graph.color_of graph w with
      | Tinygroups.Group_graph.Blue -> "blue"
      | Tinygroups.Group_graph.Red -> "red(weak)"
  in
  let members =
    String.concat ", "
      (Array.to_list (Array.map Point.to_string grp.Tinygroups.Group.members))
  in
  Printf.sprintf "G_%s (%s): {%s}  (%d bad / %d)" (Point.to_string w) color members
    grp.Tinygroups.Group.bad_members (Tinygroups.Group.size grp)

let trace buf graph ~src ~key =
  let o = Tinygroups.Secure_route.search graph ~failure:`Majority ~src ~key in
  Buffer.add_string buf
    (Printf.sprintf "search: from G_%s for key %s (responsible: %s)\n"
       (Point.to_string src) (Point.to_string key)
       (Point.to_string
          (Ring.successor_exn
             (Adversary.Population.ring (Tinygroups.Group_graph.population graph))
             key)));
  let rec walk = function
    | [] -> ()
    | [ last ] -> Buffer.add_string buf ("   " ^ describe_group graph last ^ "\n")
    | hop :: rest ->
        Buffer.add_string buf ("   " ^ describe_group graph hop ^ "\n");
        Buffer.add_string buf "      ||  all-to-all exchange (|G|x|G| messages)\n";
        Buffer.add_string buf "      vv\n";
        walk rest
  in
  walk o.Tinygroups.Secure_route.group_path;
  (match o.Tinygroups.Secure_route.result with
  | Ok resp ->
      Buffer.add_string buf
        (Printf.sprintf "   => SUCCESS: reached the group of suc(key) = %s; %d messages\n"
           (Point.to_string resp) o.Tinygroups.Secure_route.messages)
  | Error red ->
      Buffer.add_string buf
        (Printf.sprintf
           "   => FAILED: first red group G_%s ends the search path (SII-A); %d messages\n"
           (Point.to_string red) o.Tinygroups.Secure_route.messages));
  Buffer.add_string buf "\n"

let render rng =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "\n== F1 (Figure 1): a search in H and its group-graph mirror\n\n";
  let pop, graph = Common.build_tiny rng ~n:16 ~beta:0.0 () in
  let leaders = Tinygroups.Group_graph.leaders graph in
  let src = leaders.(0) in
  let key = Point.of_float 0.62 in
  Buffer.add_string buf "-- clean system (every group blue):\n";
  trace buf graph ~src ~key;
  (* Same topology with a red group planted on the path, as in the
     figure's right-hand side. *)
  let o = Tinygroups.Secure_route.search graph ~failure:`Majority ~src ~key in
  let path = o.Tinygroups.Secure_route.group_path in
  if List.length path >= 3 then begin
    let mid = List.nth path (List.length path / 2) in
    let sabotaged =
      Tinygroups.Group_graph.assemble
        ~params:(Tinygroups.Group_graph.params graph)
        ~population:pop ~overlay:(Tinygroups.Group_graph.overlay graph)
        ~groups:(Tinygroups.Group_graph.groups graph)
        ~confused:[ mid ] ()
    in
    Buffer.add_string buf
      (Printf.sprintf "-- same search with G_%s turned red (marked [B]):\n"
         (Point.to_string mid));
    trace buf sabotaged ~src ~key
  end;
  Buffer.contents buf
