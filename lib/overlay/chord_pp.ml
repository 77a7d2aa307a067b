open Idspace

let rec make ?(salt = 0) ring =
  if Ring.cardinal ring = 0 then invalid_arg "Chord_pp.make: empty ring";
  (* Chord++ shares Chord's linking rule; only routing differs. *)
  let base = Chord.make ring in
  let neighbors = base.Overlay_intf.neighbors in
  let n = Ring.cardinal ring in
  let hard_bound = n + 1 in
  let route ~src ~key =
    let resp = Ring.successor_exn ring key in
    if Point.equal src resp then [ src ]
    else begin
      (* Per-query deterministic randomness, all on native ints. *)
      let mix = Prng.Splitmix.mix_int in
      let seed = mix (salt lxor (src :> int) lxor mix (key :> int)) in
      let rec go current acc hops =
        if hops > hard_bound then failwith "Chord_pp.route: hop bound exceeded"
        else begin
          let scur =
            match Ring.strict_successor ring current with
            | Some s -> s
            | None -> assert false
          in
          let arc = Point.distance_cw current scur in
          let dist_key = Point.distance_cw current key in
          if arc = 0 || (dist_key > 0 && dist_key <= arc) then
            List.rev (scur :: acc)
          else begin
            (* Candidate fingers that land strictly before the key,
               with their clockwise progress ([0 < d < dist_key]
               subsumes the seed's range checks). *)
            let candidates =
              List.filter_map
                (fun u ->
                  let d = Point.distance_cw current u in
                  if d > 0 && d < dist_key then Some (u, d) else None)
                (neighbors current)
            in
            let next =
              match candidates with
              | [] -> scur
              | _ ->
                  let greedy =
                    List.fold_left (fun acc (_, d) -> if d > acc then d else acc) 0
                      candidates
                  in
                  (* Any finger making at least half the greedy
                     progress is eligible; pick one by the query's
                     deterministic coin. [2d >= greedy] phrased
                     overflow-safely (2d can exceed a 63-bit int). *)
                  let eligible =
                    List.filter
                      (fun (_, d) -> d >= (greedy + 1) / 2)
                      candidates
                  in
                  let eligible = List.sort (fun (a, _) (b, _) -> Point.compare a b) eligible in
                  let k = List.length eligible in
                  (* [mix_int] output is non-negative (62 bits). *)
                  let idx = mix (seed + (hops * 2654435761)) mod k in
                  fst (List.nth eligible idx)
            in
            go next (next :: acc) (hops + 1)
          end
        end
      in
      go src [ src ] 0
    end
  in
  {
    base with
    Overlay_intf.route;
    max_hops = base.Overlay_intf.max_hops * 2;
    rebuild = make ~salt;
  }
