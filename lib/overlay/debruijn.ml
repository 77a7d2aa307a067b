open Idspace

(* Image of a point under the halving maps: l (bit = 0) prepends a 0
   bit, r (bit = 1) prepends a 1 bit to the binary expansion. *)
let half_point ~bit p =
  let top = if bit then 1 lsl 61 else 0 in
  Point.add_cw Point.zero (((p : Point.t :> int) lsr 1) lor top)

(* All ring members whose responsibility arc intersects the clockwise
   arc (from, until]: the members inside the arc plus suc(until). The
   walk visits each member at most once: when every member lies in
   the arc it stops back at the first. An image arc with
   [from = until] is one whose ends halve to the same point (adjacent
   IDs [2k], [2k+1]): it holds no whole point, so only suc(until)
   covers it, not the whole ring. *)
let nodes_covering ring ~from ~until =
  let acc = ref [ Ring.successor_exn ring until ] in
  (if not (Point.equal from until) then
     let first = Ring.strict_successor_exn ring from in
     let rec walk m =
       if Point.in_cw_range ~from ~until m then begin
         acc := m :: !acc;
         let next = Ring.strict_successor_exn ring m in
         if not (Point.equal next first) then walk next
       end
     in
     walk first);
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
  (* The table, filled eagerly at [make]: one row per rank, from the
     per-node rule, mapped to ranks. *)
  let rows =
    Array.init n (fun r -> List.map (Ring.rank ring) (neighbors_of ring (Ring.nth ring r)))
  in
  let off = Array.make (n + 1) 0 in
  Array.iteri (fun r row -> off.(r + 1) <- off.(r) + List.length row) rows;
  let adj = Overlay_intf.table_create off.(n) in
  Array.iteri
    (fun r row ->
      List.iteri (fun i u -> Overlay_intf.set32 adj (4 * (off.(r) + i)) (Int32.of_int u)) row)
    rows;
  let steps = halving_steps n in
  let run ~src ~key visit st =
    let resp = Ring.successor_rank ring key in
    let r = Ring.rank ring src in
    if visit st r && r <> resp then begin
      (* Phase 1: prepend the top [steps] bits of a point slightly
         counter-clockwise of the key (so phase 2 can only walk
         forwards into the responsible ID, never past it), most
         significant bit applied last. The continuous walk point and
         the rank responsible for it are tracked together. *)
      let slack = 1 lsl (62 - steps) in
      let key_bits = (Point.add_cw key (-2 * slack) :> int) in
      let continuous = ref src and current = ref r and go = ref true and i = ref steps in
      while !go && !i >= 1 do
        let bit = (key_bits lsr (62 - !i)) land 1 = 1 in
        continuous := half_point ~bit !continuous;
        let node = Ring.successor_rank ring !continuous in
        if node <> !current then begin
          go := visit st node;
          current := node
        end;
        decr i
      done;
      (* Phase 2: the walk point now agrees with the key on its top
         [steps] bits, so the responsible ID is at most a couple of
         successor hops away. *)
      while !go && !current <> resp do
        current := if !current = n - 1 then 0 else !current + 1;
        go := visit st !current
      done
    end
  in
  Overlay_intf.make ~ring ~off ~adj ~neighbors_in:neighbors_of ~walk:{ Overlay_intf.run }
    ~rebuild:make
