open Idspace

(* The linking rule, in rank space: the predecessor plus the fingers
   [suc(w + 2^j)], j = 0..61, ascending and without [w] itself.

   A finger [f = suc(w + 2^j)] at clockwise distance [d] from [w] is
   also [suc(w + 2^j')] for every larger stride with [2^j' <= d]: the
   target lies on the arc [w + 2^j, f], which holds no ID before [f].
   So only the strides that leave the current finger's gap search the
   ring — about lg n of the 62. Once a finger is [w] itself (a ring of
   one, or a stride that wrapped into [w]'s own arc), every larger
   stride lands on [w] too and adds nothing.

   The ranks collect in a per-call buffer (the rule runs on several
   domains at once), insertion-sorted and de-duplicated, then mapped
   to points once. *)
let neighbors_of ring w =
  let n = Ring.cardinal ring in
  let buf = Array.make 63 0 and len = ref 0 in
  let push r =
    let i = ref !len in
    while !i > 0 && Array.unsafe_get buf (!i - 1) > r do
      decr i
    done;
    if !i = 0 || Array.unsafe_get buf (!i - 1) <> r then begin
      Array.blit buf !i buf (!i + 1) (!len - !i);
      Array.unsafe_set buf !i r;
      incr len
    end
  in
  let j = ref 0 in
  while !j <= 61 do
    let r = Ring.successor_rank ring (Point.add_cw w (1 lsl !j)) in
    let d = Point.distance_cw w (Ring.nth ring r) in
    if d = 0 then j := 62
    else begin
      push r;
      incr j;
      while !j <= 61 && 1 lsl !j <= d do
        incr j
      done
    end
  done;
  let p = (Ring.successor_rank ring w + n - 1) mod n in
  if not (Point.equal (Ring.nth ring p) w) then push p;
  let acc = ref [] in
  for i = !len - 1 downto 0 do
    acc := Ring.nth ring (Array.unsafe_get buf i) :: !acc
  done;
  !acc

let rec make ring =
  if Ring.cardinal ring = 0 then invalid_arg "Chord.make: empty ring";
  (* Neighbour memo indexed by ring rank. Off-ring queries (rare; e.g.
     a probe for an ID mid-join) compute uncached. *)
  let memo : Point.t list option array = Array.make (Ring.cardinal ring) None in
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
  let n = Ring.cardinal ring in
  let max_hops =
    let lg = int_of_float (ceil (log (float_of_int (max 2 n)) /. log 2.)) in
    (2 * lg) + 8
  in
  (* Greedy progress strictly decreases the clockwise distance to the
     key, so [n] hops is a hard correctness bound; [max_hops] is the
     expected O(log n) diagnostic. *)
  let hard_bound = n + 1 in
  let route ~src ~key =
    let resp = Ring.successor_exn ring key in
    if Point.equal src resp then [ src ]
    else begin
      let rec go current acc hops =
        if hops > hard_bound then failwith "Chord.route: hop bound exceeded"
        else begin
          let scur =
            match Ring.strict_successor ring current with
            | Some s -> s
            | None -> assert false
          in
          let arc = Point.distance_cw current scur in
          let dkey = Point.distance_cw current key in
          if arc = 0 || (dkey > 0 && dkey <= arc) then
            (* key lands in (current, successor]: successor is
               responsible; final hop. *)
            List.rev (scur :: acc)
          else begin
            (* Closest preceding finger: the neighbour farthest
               clockwise that does not reach the key. [0 < d < dkey]
               subsumes the seed's range/inequality checks; strictly
               greater [d] replaces, so ties keep the earlier
               neighbour, exactly as before. *)
            let best_u = ref current and best_d = ref (-1) in
            List.iter
              (fun u ->
                let d = Point.distance_cw current u in
                if d > 0 && d < dkey && d > !best_d then begin
                  best_u := u;
                  best_d := d
                end)
              (neighbors current);
            let next = if !best_d >= 0 then !best_u else scur in
            go next (next :: acc) (hops + 1)
          end
        end
      in
      go src [ src ] 0
    end
  in
  {
    Overlay_intf.ring;
    neighbors;
    neighbors_in = neighbors_of;
    route;
    max_hops;
    rebuild = make;
  }
