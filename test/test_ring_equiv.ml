(* qcheck equivalence suite for the flat-array [Idspace.Ring]: the
   seed's Set-based ring lives on here as a test-only reference
   implementation, and every query of the new ring is property-checked
   against it over random point sets — including wrap-around probes
   near the top of the ID space and singleton rings. *)

open Idspace

(* The seed implementation, verbatim (minus [populate], whose draw
   parity is checked separately below). *)
module Ref_ring = struct
  module Pset = Set.Make (struct
    type t = Point.t

    let compare = Point.compare
  end)

  let of_list ps = Pset.of_list ps
  let add = Pset.add
  let remove = Pset.remove
  let cardinal = Pset.cardinal

  let successor t x =
    if Pset.is_empty t then None
    else
      match Pset.find_first_opt (fun id -> Point.compare id x >= 0) t with
      | Some id -> Some id
      | None -> Some (Pset.min_elt t)

  let strict_successor t x =
    if Pset.is_empty t then None
    else
      match Pset.find_first_opt (fun id -> Point.compare id x > 0) t with
      | Some id -> Some id
      | None -> Some (Pset.min_elt t)

  let predecessor t x =
    if Pset.is_empty t then None
    else
      match Pset.find_last_opt (fun id -> Point.compare id x < 0) t with
      | Some id -> Some id
      | None -> Some (Pset.max_elt t)

  let responsibility t id =
    if not (Pset.mem id t) then None
    else
      match predecessor t id with
      | None -> None
      | Some p ->
          if Point.equal p id then Some Interval.full
          else Some (Interval.make ~from:p ~until:id)

  let to_sorted_array t = Array.of_list (Pset.elements t)

  let random_member rng t =
    let n = Pset.cardinal t in
    if n = 0 then invalid_arg "Ring.random_member: empty ring";
    let k = Prng.Rng.int rng n in
    let found = ref None in
    let i = ref 0 in
    (try
       Pset.iter
         (fun id ->
           if !i = k then begin
             found := Some id;
             raise Exit
           end;
           incr i)
         t
     with Exit -> ());
    match !found with Some id -> id | None -> assert false
end

(* Deterministic int -> point embedding. Masking [mix] to u62 keeps
   the generator uniform-ish over the whole space; small inputs also
   get mapped near the ends of the space below to force wrap-around. *)
let point_of_int i =
  Point.of_u62 (Int64.logand (Prng.Splitmix.mix (Int64.of_int i)) (Int64.sub (Int64.shift_left 1L 62) 1L))

let top = Int64.sub (Int64.shift_left 1L 62) 1L

(* Points hugging both ends of the ID space, where successor queries
   wrap. *)
let edge_points =
  List.map Point.of_u62 [ 0L; 1L; 2L; top; Int64.sub top 1L; Int64.sub top 2L ]

let points_gen =
  QCheck.Gen.(
    let* base = list_size (int_bound 48) (map point_of_int int) in
    let* edges = list_size (int_bound 4) (oneofl edge_points) in
    return (base @ edges))

let points_arb =
  QCheck.make points_gen ~print:(fun ps ->
      String.concat ";" (List.map Point.to_string ps))

(* Probes: arbitrary points plus the members themselves and their
   direct key-space neighbours (the off-by-one cases binary search
   gets wrong first). *)
let probes_of ps extra =
  let nudge p d = Point.add_cw p d in
  List.concat_map (fun p -> [ p; nudge p 1; nudge p (-1) ]) ps
  @ edge_points @ extra

let both ps = (Ring.of_list ps, Ref_ring.of_list ps)

let opt_point_eq = Option.equal Point.equal

(* [Ring.successor_exn] as an option, [None] on the empty ring. *)
let successor ring x = if Ring.cardinal ring = 0 then None else Some (Ring.successor_exn ring x)

(* Same endpoints: both arcs come from [Interval.make] or are
   [Interval.full], so structural equality compares exactly those. *)
let ival_eq (a : Interval.t option) b = a = b

let prop_queries =
  QCheck.Test.make ~name:"successor/strict/pred/responsibility agree with Set ring"
    ~count:300 points_arb (fun ps ->
      let ring, reference = both ps in
      let extra = List.map point_of_int [ 7777; 8888; 9999 ] in
      List.for_all
        (fun x ->
          opt_point_eq (successor ring x) (Ref_ring.successor reference x)
          && opt_point_eq (Ring.strict_successor ring x)
               (Ref_ring.strict_successor reference x)
          && opt_point_eq (Ring.predecessor ring x) (Ref_ring.predecessor reference x)
          && ival_eq (Ring.responsibility ring x) (Ref_ring.responsibility reference x))
        (probes_of ps extra))

let prop_cardinal_and_order =
  QCheck.Test.make ~name:"cardinal and sorted order agree with Set ring" ~count:300
    points_arb (fun ps ->
      let ring, reference = both ps in
      Ring.cardinal ring = Ref_ring.cardinal reference
      && Ring.to_sorted_array ring = Ref_ring.to_sorted_array reference)

let prop_random_member_parity =
  QCheck.Test.make
    ~name:"random_member: same pick, exactly the same PRNG consumption" ~count:300
    QCheck.(pair points_arb small_int)
    (fun (ps, seed) ->
      QCheck.assume (ps <> []);
      let ring, reference = both ps in
      let r1 = Prng.Rng.create seed in
      let r2 = Prng.Rng.copy r1 in
      let a = Ring.random_member r1 ring in
      let b = Ref_ring.random_member r2 reference in
      (* Same member chosen, and the two streams remain in lockstep
         afterwards — i.e. both consumed exactly one draw. *)
      Point.equal a b && Prng.Rng.bits64 r1 = Prng.Rng.bits64 r2)

let prop_churn_equiv =
  QCheck.Test.make ~name:"add/remove stay equivalent to the Set ring" ~count:300
    QCheck.(pair points_arb points_arb)
    (fun (initial, churn) ->
      let ring = ref (Ring.of_list initial) in
      let reference = ref (Ref_ring.of_list initial) in
      List.iteri
        (fun i p ->
          if i mod 2 = 0 then begin
            ring := Ring.add p !ring;
            reference := Ref_ring.add p !reference
          end
          else begin
            ring := Ring.remove p !ring;
            reference := Ref_ring.remove p !reference
          end)
        (churn @ initial);
      Ring.to_sorted_array !ring = Ref_ring.to_sorted_array !reference)

let prop_batch_equals_sequential =
  QCheck.Test.make ~name:"add_batch/remove_batch = folded add/remove" ~count:300
    QCheck.(pair points_arb points_arb)
    (fun (initial, batch) ->
      let ring = Ring.of_list initial in
      (* Overlapping batch: half fresh points, half already present. *)
      let batch = batch @ (List.filteri (fun i _ -> i mod 2 = 0) initial) in
      let added = Ring.add_batch batch ring in
      let added_seq = List.fold_left (fun t p -> Ring.add p t) ring batch in
      let removed = Ring.remove_batch batch added in
      let removed_seq = List.fold_left (fun t p -> Ring.remove p t) added batch in
      Ring.to_sorted_array added = Ring.to_sorted_array added_seq
      && Ring.to_sorted_array removed = Ring.to_sorted_array removed_seq)

let test_singleton () =
  let p = Point.of_float 0.25 in
  let ring = Ring.of_list [ p ] in
  let probe = Point.of_float 0.9 in
  Alcotest.(check bool) "successor wraps" true
    (opt_point_eq (successor ring probe) (Some p));
  Alcotest.(check bool) "strict successor of the member is itself" true
    (opt_point_eq (Ring.strict_successor ring p) (Some p));
  Alcotest.(check bool) "predecessor wraps" true
    (opt_point_eq (Ring.predecessor ring p) (Some p));
  Alcotest.(check bool) "responsibility is the full ring" true
    (ival_eq (Ring.responsibility ring p) (Some Interval.full));
  let rng = Prng.Rng.create 7 in
  Alcotest.(check bool) "random_member returns the only member" true
    (Point.equal (Ring.random_member rng ring) p)

let test_wraparound_explicit () =
  let lo = Point.of_u62 3L and hi = Point.of_u62 top in
  let ring = Ring.of_list [ lo; hi ] in
  Alcotest.(check bool) "successor past the top wraps to the smallest" true
    (opt_point_eq (successor ring (Point.of_u62 (Int64.sub top 0L |> Int64.add 0L)))
       (Some hi));
  Alcotest.(check bool) "strict successor of the top is the smallest" true
    (opt_point_eq (Ring.strict_successor ring hi) (Some lo));
  Alcotest.(check bool) "predecessor of the smallest wraps to the top" true
    (opt_point_eq (Ring.predecessor ring lo) (Some hi))

let test_populate_draw_parity () =
  (* [populate] must consume the PRNG exactly as the Set accumulator
     did: draw, reject on collision, redraw. *)
  let r1 = Prng.Rng.create 42 in
  let r2 = Prng.Rng.copy r1 in
  let ring = Ring.populate r1 256 in
  let reference =
    let rec grow acc k =
      if k = 0 then acc
      else
        let p = Point.random r2 in
        if Ref_ring.Pset.mem p acc then grow acc k
        else grow (Ref_ring.Pset.add p acc) (k - 1)
    in
    grow Ref_ring.Pset.empty 256
  in
  Alcotest.(check bool) "same member set" true
    (Ring.to_sorted_array ring = Ref_ring.to_sorted_array reference);
  Alcotest.(check bool) "streams in lockstep afterwards" true
    (Prng.Rng.bits64 r1 = Prng.Rng.bits64 r2)

(* Rings grown by single [Ring.add]s from an [of_list] base. [add]
   keeps new points in a delta that it folds into the base once it
   holds about sqrt n points, so a walk of 2 sqrt n + 4 adds passes
   through an empty delta, a partly full one and a just-folded one;
   every query is checked against the Set ring after every add. *)

(* Every query of [ring] agrees with [reference] on [probes]; ranks,
   [nth] and the iteration order agree on every member. *)
let agree ring reference probes =
  let sorted = Ref_ring.to_sorted_array reference in
  let n = Array.length sorted in
  let exn_eq f g x =
    match (f x, g x) with
    | a, Some b -> Point.equal a b
    | exception Not_found -> n = 0
    | _, None -> false
  in
  let successor_rank_ok x =
    match Ring.successor_rank ring x with
    | r -> (
        match Ref_ring.successor reference x with
        | Some s -> Point.equal sorted.(r) s
        | None -> false)
    | exception Not_found -> n = 0
  in
  let out_of_range i =
    match Ring.nth ring i with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Ring.cardinal ring = n
  && Ring.to_sorted_array ring = sorted
  && List.rev (Ring.fold (fun p acc -> p :: acc) ring []) = Array.to_list sorted
  && (let seen = ref [] in
      Ring.iter (fun p -> seen := p :: !seen) ring;
      List.rev !seen = Array.to_list sorted)
  && Array.for_all Fun.id
       (Array.mapi
          (fun i p -> Ring.rank ring p = i && Point.equal (Ring.nth ring i) p && Ring.mem p ring)
          sorted)
  && out_of_range (-1)
  && out_of_range n
  && List.for_all
       (fun x ->
         opt_point_eq (successor ring x) (Ref_ring.successor reference x)
         && opt_point_eq (Ring.strict_successor ring x) (Ref_ring.strict_successor reference x)
         && opt_point_eq (Ring.predecessor ring x) (Ref_ring.predecessor reference x)
         && exn_eq (Ring.successor_exn ring) (Ref_ring.successor reference) x
         && exn_eq (Ring.strict_successor_exn ring) (Ref_ring.strict_successor reference) x
         && ival_eq (Ring.responsibility ring x) (Ref_ring.responsibility reference x)
         && Ring.mem x ring = Ref_ring.Pset.mem x reference
         && (Ring.rank ring x >= 0) = Ref_ring.Pset.mem x reference
         && successor_rank_ok x)
       probes

(* Grow an [n]-point base by single adds, checking [agree] after each;
   then apply [remove], [add_batch] and [remove_batch] to the grown
   ring. Returns false at the first disagreement. *)
let grow_and_check seed n =
  let r = Prng.Rng.create seed in
  let base = List.init n (fun _ -> Point.random r) in
  let extra = List.init ((2 * int_of_float (sqrt (float_of_int n))) + 4) (fun _ -> Point.random r) in
  let random_probes = List.init 48 (fun _ -> Point.random r) in
  let ring = ref (Ring.of_list base) and reference = ref (Ref_ring.of_list base) in
  let ok = ref (agree !ring !reference (probes_of [] random_probes)) in
  List.iteri
    (fun i p ->
      ring := Ring.add p !ring;
      reference := Ref_ring.add p !reference;
      (* Re-adding a present point is a no-op, base or delta. *)
      if i mod 3 = 0 then ring := Ring.add p !ring;
      let members = List.filteri (fun j _ -> j mod 97 = i mod 97) base in
      ok := !ok && agree !ring !reference (probes_of (p :: members) random_probes);
      (* Draw parity: same pick, one draw, on whatever delta the ring holds. *)
      let r1 = Prng.Rng.create (seed + i) in
      let r2 = Prng.Rng.copy r1 in
      ok :=
        !ok
        && Point.equal (Ring.random_member r1 !ring) (Ref_ring.random_member r2 !reference)
        && Prng.Rng.bits64 r1 = Prng.Rng.bits64 r2)
    extra;
  (* Structural churn on a grown ring (whose delta is partly full
     unless the last add folded it). *)
  let gone = List.filteri (fun j _ -> j mod 5 = 0) (extra @ base) in
  let fresh = List.init 20 (fun _ -> Point.random r) in
  let removed = List.fold_left (fun t p -> Ref_ring.Pset.remove p t) !reference gone in
  let probes = probes_of fresh random_probes in
  let grown = Ring.add (List.hd fresh) !ring in
  let grown_ref = Ref_ring.add (List.hd fresh) !reference in
  !ok
  && agree (Ring.remove_batch gone !ring) removed probes
  && agree (Ring.add_batch fresh !ring) (List.fold_left (fun t p -> Ref_ring.add p t) !reference fresh) probes
  && agree (Ring.remove (List.hd fresh) grown) !reference probes
  && agree (Ring.remove (List.hd gone) grown) (Ref_ring.remove (List.hd gone) grown_ref) probes
  && agree (Ring.remove (List.nth fresh 1) grown) grown_ref probes
  && agree (Ring.remove_batch [ List.hd fresh ] grown) !reference probes

let prop_grown_rings =
  QCheck.Test.make ~name:"rings grown by single adds agree with Set ring" ~count:25
    QCheck.(pair small_nat (int_range 0 3000))
    (fun (seed, n) -> grow_and_check seed n)

let test_grown_large () =
  List.iter
    (fun n ->
      Alcotest.(check bool) (Printf.sprintf "n = %d" n) true (grow_and_check n n))
    [ 0; 1; 2; 3; 4; 15; 16; 3000 ]

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "ring-equivalence"
    [
      ( "qcheck",
        [
          q prop_queries;
          q prop_cardinal_and_order;
          q prop_random_member_parity;
          q prop_churn_equiv;
          q prop_batch_equals_sequential;
          q prop_grown_rings;
        ] );
      ( "unit",
        [
          Alcotest.test_case "singleton ring" `Quick test_singleton;
          Alcotest.test_case "wrap-around" `Quick test_wraparound_explicit;
          Alcotest.test_case "populate draw parity" `Quick test_populate_draw_parity;
          Alcotest.test_case "grown rings, base sizes 0-3000" `Quick test_grown_large;
        ] );
    ]
