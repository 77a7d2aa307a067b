open Idspace

(* All IDs and each side live in flat sorted rings: [is_bad] is a
   binary search over unboxed points and [bad_ring] is a field read.
   The good ring is built with the others, so the record is never
   written after construction. *)
type t = { ring : Ring.t; bad : Ring.t; good : Ring.t }

let make ~good ~bad =
  let bad_ring = Ring.of_list bad in
  if Ring.cardinal bad_ring <> List.length bad then
    invalid_arg "Population.make: duplicate bad IDs";
  List.iter
    (fun g ->
      if Ring.mem g bad_ring then invalid_arg "Population.make: good/bad overlap")
    good;
  let ring = Ring.of_list (good @ bad) in
  if Ring.cardinal ring <> List.length good + List.length bad then
    invalid_arg "Population.make: duplicate good IDs";
  (* One linear pass over the sorted ring, not a second sort. *)
  { ring; bad = bad_ring; good = Ring.remove_batch bad ring }

let generate rng ~n ~beta ~strategy =
  if beta < 0. || beta >= 1. then invalid_arg "Population.generate: beta out of [0,1)";
  let bad_budget = int_of_float (ceil (beta *. float_of_int n)) in
  let bad = Placement.draw rng strategy ~budget:bad_budget in
  let bad_ring = Ring.of_list bad in
  let seen = Hashtbl.create (2 * n) in
  let rec draw_good acc k =
    if k = 0 then acc
    else begin
      let p = Point.random rng in
      if Ring.mem p bad_ring || Hashtbl.mem seen p then draw_good acc k
      else begin
        Hashtbl.add seen p ();
        draw_good (p :: acc) (k - 1)
      end
    end
  in
  let good = draw_good [] (n - List.length bad) in
  make ~good ~bad

let ring t = t.ring
let bad_ring t = t.bad
let n t = Ring.cardinal t.ring
let is_bad t p = Ring.mem p t.bad
let bad_count t = Ring.cardinal t.bad
let beta_actual t = float_of_int (bad_count t) /. float_of_int (max 1 (n t))

(* Ascending ring order. PRNG-indexed sweeps rely on the layout, so
   it is digest-relevant. *)
let good_ids t = Ring.to_sorted_array t.good

let remove_batch t ps =
  {
    ring = Ring.remove_batch ps t.ring;
    bad = Ring.remove_batch ps t.bad;
    good = Ring.remove_batch ps t.good;
  }

let add_batch t ~good ~bad =
  let all = good @ bad in
  List.iter
    (fun p ->
      if Ring.mem p t.ring then
        invalid_arg "Population.add_batch: ID already present")
    all;
  let ring = Ring.add_batch all t.ring in
  (* [Ring.add_batch] absorbs intra-list duplicates; reject them. *)
  if Ring.cardinal ring <> Ring.cardinal t.ring + List.length all then
    invalid_arg "Population.add_batch: duplicate IDs in batch";
  { ring; bad = Ring.add_batch bad t.bad; good = Ring.add_batch good t.good }

let random_good rng t =
  if Ring.cardinal t.good = 0 then invalid_arg "Population.random_good: no good IDs";
  Ring.random_member rng t.good
