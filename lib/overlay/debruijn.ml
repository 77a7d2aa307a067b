open Idspace

(* Image of a point under the halving maps: l (bit = 0) prepends a 0
   bit, r (bit = 1) prepends a 1 bit to the binary expansion. *)
let half_point ~bit p =
  let top = if bit then 1 lsl 61 else 0 in
  Point.add_cw Point.zero (((p : Point.t :> int) lsr 1) lor top)

(* All ring members whose responsibility arc intersects the clockwise
   arc (from, until]: the members inside the arc plus suc(until). *)
let nodes_covering ring ~from ~until =
  let acc = ref [ Ring.successor_exn ring until ] in
  let rec walk m =
    if Point.in_cw_range ~from ~until m then begin
      acc := m :: !acc;
      match Ring.strict_successor ring m with
      | Some next when not (Point.equal next m) -> walk next
      | _ -> ()
    end
  in
  (match Ring.strict_successor ring from with Some m -> walk m | None -> ());
  List.sort_uniq Point.compare !acc

(* Images of an arc under one halving map. A wrapping arc is split at
   the top of the ring so each piece maps monotonically. *)
let arc_images ~bit ~from ~until =
  let top = Point.add_cw Point.zero (-1) in
  let image (a, b) = (half_point ~bit a, half_point ~bit b) in
  if Point.compare from until < 0 || Point.equal from until then [ image (from, until) ]
  else [ image (from, top); image (Point.zero, until) ]

let halving_steps n =
  let lg = int_of_float (ceil (log (float_of_int (max 2 n)) /. log 2.)) in
  lg + 4

let neighbors_of ring w =
  let pred = match Ring.predecessor ring w with Some p -> p | None -> w in
  let succ = match Ring.strict_successor ring w with Some s -> s | None -> w in
  (* Our responsibility arc is (pred, w]. *)
  let image_nodes =
    List.concat_map
      (fun bit ->
        List.concat_map
          (fun (a, b) -> nodes_covering ring ~from:a ~until:b)
          (arc_images ~bit ~from:pred ~until:w))
      [ false; true ]
  in
  List.filter
    (fun u -> not (Point.equal u w))
    (List.sort_uniq Point.compare (pred :: succ :: image_nodes))

let rec make ring =
  let n = Ring.cardinal ring in
  if n = 0 then invalid_arg "Debruijn.make: empty ring";
  (* Rank-indexed neighbour memo (see {!Chord.make}). *)
  let memo : Point.t list option array = Array.make n None in
  let neighbors w =
    let r = Ring.rank ring w in
    if r < 0 then neighbors_of ring w
    else
      match memo.(r) with
      | Some ns -> ns
      | None ->
          let ns = neighbors_of ring w in
          memo.(r) <- Some ns;
          ns
  in
  let steps = halving_steps n in
  let route ~src ~key =
    let resp = Ring.successor_exn ring key in
    if Point.equal src resp then [ src ]
    else begin
      (* Phase 1: prepend the top [steps] bits of a point slightly
         counter-clockwise of the key (so phase 2 can only walk
         forwards into the responsible ID, never past it), most
         significant bit applied last. The continuous walk point and
         the ID responsible for it are tracked together. *)
      let slack = 1 lsl (62 - steps) in
      let key_bits = (Point.add_cw key (-2 * slack) :> int) in
      let continuous = ref src in
      let path = ref [ src ] in
      let current = ref src in
      for i = steps downto 1 do
        let bit = (key_bits lsr (62 - i)) land 1 = 1 in
        continuous := half_point ~bit !continuous;
        let node = Ring.successor_exn ring !continuous in
        if not (Point.equal node !current) then begin
          path := node :: !path;
          current := node
        end
      done;
      (* Phase 2: the walk point now agrees with the key on its top
         [steps] bits, so the responsible ID is at most a couple of
         successor hops away. *)
      let guard = ref 0 in
      while (not (Point.equal !current resp)) && !guard <= n do
        incr guard;
        let next =
          match Ring.strict_successor ring !current with
          | Some s -> s
          | None -> assert false
        in
        path := next :: !path;
        current := next
      done;
      if !guard > n then failwith "Debruijn.route: successor walk failed";
      List.rev !path
    end
  in
  {
    Overlay_intf.ring;
    neighbors;
    neighbors_in = neighbors_of;
    route;
    max_hops = steps + 4;
    rebuild = make;
  }
