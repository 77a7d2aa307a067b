open Idspace

(* Rank space: the offset of table entry [i] clockwise from rank [r],
   and the rank at offset [o] from [r]. *)
let offset adj n r i =
  let o = Int32.to_int (Overlay_intf.get32 adj (4 * i)) - r in
  if o < 0 then o + n else o

let at_offset n r o = if r + o >= n then r + o - n else r + o

(* Entry [i] of rank [r]'s row is short of the responsible rank
   (offset below [bound]) and makes at least [half] the greedy
   progress from the point [cur] of rank [r]. *)
let eligible ring adj n r ~bound ~cur ~half i =
  let o = offset adj n r i in
  o < bound && Point.distance_cw cur (Ring.nth ring (at_offset n r o)) >= half

(* The query's coin at hop [hops] over [k] eligible fingers;
   [mix_int] output is non-negative (62 bits). *)
let coin ~seed ~hops k = Prng.Splitmix.mix_int (seed + (hops * 2654435761)) mod k

let rec make ?(salt = 0) ring =
  if Ring.cardinal ring = 0 then invalid_arg "Chord_pp.make: empty ring";
  (* Chord++ shares Chord's linking rule and table; only routing
     differs. *)
  let base = Chord.make ring in
  let off = base.Overlay_intf.off and adj = base.Overlay_intf.adj in
  let n = Ring.cardinal ring in
  (* One hop from rank [r] toward [resp <> r]. The candidates are the
     neighbours short of [resp] — offsets [(u - r) mod n] in
     [1, (resp - r) mod n) — which always include the successor
     unless the successor is [resp], the final hop. Any candidate
     making at least half the greedy (farthest) candidate's progress
     is eligible; the table row is ascending, i.e. in ring order, and
     the coin picks among the eligible in that order. [2d >= greedy]
     is phrased overflow-safely (2d can exceed a 63-bit int). *)
  let next ~seed ~hops r resp =
    let bound = if resp >= r then resp - r else resp - r + n in
    let lo = off.(r) and hi = off.(r + 1) - 1 in
    let best = ref 1 in
    for i = lo to hi do
      let o = offset adj n r i in
      if o < bound && o > !best then best := o
    done;
    if bound = 1 then at_offset n r 1
    else begin
      let cur = Ring.nth ring r in
      let half = (Point.distance_cw cur (Ring.nth ring (at_offset n r !best)) + 1) / 2 in
      let k = ref 0 in
      for i = lo to hi do
        if eligible ring adj n r ~bound ~cur ~half i then incr k
      done;
      let idx = ref (coin ~seed ~hops !k) and i = ref (lo - 1) in
      while !idx >= 0 do
        incr i;
        if eligible ring adj n r ~bound ~cur ~half !i then decr idx
      done;
      Overlay_intf.table_get adj !i
    end
  in
  (* The first hop from a point off the ring, by the same rule over
     the linking rule's neighbours and point distances. *)
  let first_off ~seed ~src ~key =
    let s = Ring.successor_rank ring src in
    let dist_key = Point.distance_cw src key in
    if dist_key > 0 && dist_key <= Point.distance_cw src (Ring.nth ring s) then s
    else
      let candidates =
        List.filter_map
          (fun u ->
            let d = Point.distance_cw src u in
            if d > 0 && d < dist_key then Some (u, d) else None)
          (base.Overlay_intf.neighbors_in ring src)
      in
      match candidates with
      | [] -> s
      | _ ->
          let greedy = List.fold_left (fun acc (_, d) -> max acc d) 0 candidates in
          let eligible = List.filter (fun (_, d) -> d >= (greedy + 1) / 2) candidates in
          Ring.rank ring (fst (List.nth eligible (coin ~seed ~hops:0 (List.length eligible))))
  in
  let run ~src ~key visit st =
    let resp = Ring.successor_rank ring key in
    let r = Ring.rank ring src in
    if visit st r && r <> resp then begin
      (* Per-query deterministic randomness, all on native ints. *)
      let mix = Prng.Splitmix.mix_int in
      let seed = mix (salt lxor (src :> int) lxor mix (key :> int)) in
      let cur = ref (if r >= 0 then next ~seed ~hops:0 r resp else first_off ~seed ~src ~key) in
      let hops = ref 1 in
      while visit st !cur && !cur <> resp do
        cur := next ~seed ~hops:!hops !cur resp;
        incr hops
      done
    end
  in
  Overlay_intf.make ~ring ~off ~adj ~neighbors_in:base.Overlay_intf.neighbors_in
    ~walk:{ Overlay_intf.run } ~rebuild:(make ~salt)
