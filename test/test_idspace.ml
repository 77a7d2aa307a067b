(* The unit ring: point arithmetic, arcs, successor structure, and the
   decentralised ln ln n estimate. *)

open Idspace

let rng = Prng.Rng.create 2024

let pt f = Point.of_float f

let test_point_roundtrip () =
  List.iter
    (fun f ->
      let p = pt f in
      Alcotest.(check (float 1e-12)) (string_of_float f) f (Point.to_float p))
    [ 0.; 0.25; 0.5; 0.75; 0.999999 ]

let test_point_of_float_rejects () =
  Alcotest.check_raises "x = 1" (Invalid_argument "Point.of_float: out of [0,1)") (fun () ->
      ignore (pt 1.0));
  Alcotest.check_raises "x < 0" (Invalid_argument "Point.of_float: out of [0,1)") (fun () ->
      ignore (pt (-0.1)))

let test_distance_cw () =
  let a = pt 0.25 and b = pt 0.75 in
  Alcotest.(check int) "quarter to three-quarter" (1 lsl 61) (Point.distance_cw a b);
  Alcotest.(check int) "wrap around" (1 lsl 61) (Point.distance_cw b a);
  Alcotest.(check int) "self distance" 0 (Point.distance_cw a a)

let test_add_cw_wraps () =
  let p = pt 0.9 in
  let q = Point.add_cw p (int_of_float (0.2 *. 0x1p62)) in
  Alcotest.(check bool) "wrapped past zero" true (Point.to_float q < 0.11)

let test_in_cw_range () =
  let from = pt 0.2 and until = pt 0.6 in
  Alcotest.(check bool) "inside" true (Point.in_cw_range ~from ~until (pt 0.4));
  Alcotest.(check bool) "endpoint included" true (Point.in_cw_range ~from ~until (pt 0.6));
  Alcotest.(check bool) "start excluded" false (Point.in_cw_range ~from ~until (pt 0.2));
  Alcotest.(check bool) "outside" false (Point.in_cw_range ~from ~until (pt 0.7));
  (* Wrapping arc (0.8, 0.1]. *)
  Alcotest.(check bool) "wrap inside" true
    (Point.in_cw_range ~from:(pt 0.8) ~until:(pt 0.1) (pt 0.95));
  Alcotest.(check bool) "wrap inside after zero" true
    (Point.in_cw_range ~from:(pt 0.8) ~until:(pt 0.1) (pt 0.05));
  Alcotest.(check bool) "wrap outside" false
    (Point.in_cw_range ~from:(pt 0.8) ~until:(pt 0.1) (pt 0.5));
  (* Equal endpoints denote the whole ring. *)
  Alcotest.(check bool) "full ring" true (Point.in_cw_range ~from ~until:from (pt 0.99))

let test_interval_basic () =
  let arc = Interval.make ~from:(pt 0.25) ~until:(pt 0.5) in
  Alcotest.(check (float 1e-9)) "fraction" 0.25 (Interval.fraction arc);
  Alcotest.(check bool) "contains" true (Interval.contains arc (pt 0.3));
  Alcotest.(check bool) "not contains" false (Interval.contains arc (pt 0.6))

let test_interval_full () =
  Alcotest.(check (float 1e-9)) "full fraction" 1.0 (Interval.fraction Interval.full);
  Alcotest.(check bool) "full contains everything" true
    (Interval.contains Interval.full (pt 0.123))

let test_interval_sample_inside () =
  let arc = Interval.make ~from:(pt 0.7) ~until:(pt 0.1) in
  for _ = 1 to 1000 do
    let p = Interval.sample rng arc in
    Alcotest.(check bool) "sample inside wrap arc" true (Interval.contains arc p)
  done

let test_ring_successor () =
  let ring = Ring.of_list [ pt 0.1; pt 0.5; pt 0.9 ] in
  let s = Alcotest.testable Point.pp Point.equal in
  Alcotest.(check s) "middle" (pt 0.5) (Ring.successor_exn ring (pt 0.3));
  Alcotest.(check s) "exact hit is its own successor" (pt 0.5)
    (Ring.successor_exn ring (pt 0.5));
  Alcotest.(check s) "wraps" (pt 0.1) (Ring.successor_exn ring (pt 0.95));
  Alcotest.(check s) "strict successor of a member" (pt 0.9)
    (Ring.strict_successor ring (pt 0.5) |> Option.get);
  Alcotest.(check s) "predecessor" (pt 0.1)
    (Ring.predecessor ring (pt 0.5) |> Option.get);
  Alcotest.(check s) "predecessor wraps" (pt 0.9)
    (Ring.predecessor ring (pt 0.05) |> Option.get)

let test_ring_empty () =
  Alcotest.check_raises "no successor in empty ring" Not_found (fun () ->
      ignore (Ring.successor_exn Ring.empty (pt 0.5)))

let test_ring_singleton () =
  let ring = Ring.of_list [ pt 0.5 ] in
  let s = Alcotest.testable Point.pp Point.equal in
  Alcotest.(check s) "only member" (pt 0.5) (Ring.successor_exn ring (pt 0.9));
  Alcotest.(check s) "strict successor wraps to itself" (pt 0.5)
    (Ring.strict_successor ring (pt 0.5) |> Option.get);
  match Ring.responsibility ring (pt 0.5) with
  | Some arc -> Alcotest.(check (float 1e-9)) "owns everything" 1.0 (Interval.fraction arc)
  | None -> Alcotest.fail "expected responsibility"

let test_responsibility_partition () =
  (* Responsibilities of all IDs partition the ring. *)
  let ring = Ring.populate rng 100 in
  let total =
    Ring.fold
      (fun id acc ->
        match Ring.responsibility ring id with
        | Some arc -> acc +. Interval.fraction arc
        | None -> acc)
      ring 0.
  in
  Alcotest.(check (float 1e-9)) "arcs partition the ring" 1.0 total

let test_populate_cardinality () =
  let ring = Ring.populate rng 500 in
  Alcotest.(check int) "exactly n IDs" 500 (Ring.cardinal ring)

let test_add_remove () =
  let ring = Ring.populate rng 50 in
  let p = pt 0.123456 in
  let ring2 = Ring.add p ring in
  Alcotest.(check int) "added" 51 (Ring.cardinal ring2);
  Alcotest.(check bool) "mem" true (Ring.mem p ring2);
  let ring3 = Ring.remove p ring2 in
  Alcotest.(check int) "removed" 50 (Ring.cardinal ring3);
  (* Original is untouched (persistent structure). *)
  Alcotest.(check bool) "persistent" false (Ring.mem p ring)

let test_estimate_scaling () =
  (* ln ln n estimates should grow with n and sit within a constant
     factor of the truth. *)
  List.iter
    (fun n ->
      let ring = Ring.populate (Prng.Rng.split rng) n in
      let ids = Ring.to_sorted_array ring in
      let estimates =
        Array.map (fun id -> Estimate.ln_ln_n ring id) (Array.sub ids 0 50)
      in
      let mean = Array.fold_left ( +. ) 0. estimates /. 50. in
      let truth = Estimate.exact_ln_ln n in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d: estimate %.2f within 2x of %.2f" n mean truth)
        true
        (mean > truth /. 2. && mean < truth *. 2.))
    [ 1000; 10_000; 100_000 ]

let test_group_size_estimate () =
  let ring = Ring.populate (Prng.Rng.split rng) 4096 in
  let id = Ring.to_sorted_array ring |> fun a -> a.(0) in
  let g = Estimate.group_size ~d:5.0 ring id in
  (* 5 * lnln 4096 = 5 * 2.12 = 10.6; allow generous slack for the
     local-gap noise. *)
  Alcotest.(check bool) (Printf.sprintf "size %d plausible" g) true (g >= 5 && g <= 25)

(* Model-based: a random op sequence on Ring agrees with a sorted-list
   reference implementation. *)
let prop_ring_matches_reference =
  QCheck.Test.make ~name:"ring agrees with a sorted-list model" ~count:100
    QCheck.(list (pair bool (float_range 0. 0.999)))
    (fun ops ->
      let reference = ref [] in
      let ring = ref Ring.empty in
      let ok = ref true in
      List.iter
        (fun (add, x) ->
          let p = pt x in
          if add then begin
            reference := List.sort_uniq Point.compare (p :: !reference);
            ring := Ring.add p !ring
          end
          else begin
            reference := List.filter (fun q -> not (Point.equal p q)) !reference;
            ring := Ring.remove p !ring
          end;
          (* Invariants after every op. *)
          if Ring.cardinal !ring <> List.length !reference then ok := false;
          if Array.to_list (Ring.to_sorted_array !ring) <> !reference then ok := false;
          (* Successor agrees with the model. *)
          let probe = pt ((x +. 0.37) -. Float.of_int (int_of_float (x +. 0.37))) in
          let model_suc =
            match List.filter (fun q -> Point.compare q probe >= 0) !reference with
            | q :: _ -> Some q
            | [] -> ( match !reference with q :: _ -> Some q | [] -> None)
          in
          let suc =
            if Ring.cardinal !ring = 0 then None else Some (Ring.successor_exn !ring probe)
          in
          if suc <> model_suc then ok := false)
        ops;
      !ok)

let prop_distance_triangle_cw =
  QCheck.Test.make ~name:"cw distances along an arc add up" ~count:500
    QCheck.(triple (float_range 0. 0.999) (float_range 0. 0.999) (float_range 0. 0.999))
    (fun (a, b, c) ->
      let a = pt a and b = pt b and c = pt c in
      (* If b lies on the cw arc from a to c, distances add exactly. *)
      if Point.in_cw_range ~from:a ~until:c b then
        Point.distance_cw a b + Point.distance_cw b c = Point.distance_cw a c
      else true)

let prop_successor_is_responsible =
  QCheck.Test.make ~name:"successor's responsibility contains the key" ~count:200
    QCheck.(pair small_int (float_range 0. 0.999))
    (fun (seed, key) ->
      let r = Prng.Rng.create (seed + 1) in
      let ring = Ring.populate r 64 in
      let key = pt key in
      let suc = Ring.successor_exn ring key in
      match Ring.responsibility ring suc with
      | Some arc -> Interval.contains arc key
      | None -> false)

let prop_interval_sample_contained =
  QCheck.Test.make ~name:"interval samples are contained" ~count:500
    QCheck.(triple small_int (float_range 0. 0.999) (float_range 0.0001 0.9))
    (fun (seed, start, len) ->
      let r = Prng.Rng.create seed in
      let from = pt start in
      let arc = Interval.make ~from ~until:(Point.add_cw from (int_of_float (len *. 0x1p62))) in
      Interval.contains arc (Interval.sample r arc))

(* The [Int64] formulas of [Point] and [Debruijn.half_point] from when
   a point was a boxed [int64], kept as the reference the native-int
   arithmetic must reproduce bit for bit. *)
module Ref64 = struct
  let modulus = Int64.shift_left 1L 62
  let mask = Int64.sub modulus 1L

  let of_u62 v =
    if v < 0L then invalid_arg "Point.of_u62: negative value";
    Int64.logand v mask

  let distance_cw a b = Int64.logand (Int64.sub b a) mask
  let add_cw p d = Int64.logand (Int64.add p (Int64.logand d mask)) mask

  let in_cw_range ~from ~until p =
    if Int64.equal from until then true
    else
      let arc = distance_cw from until in
      let d = distance_cw from p in
      d > 0L && d <= arc

  let half_point ~bit v =
    let shifted = Int64.shift_right_logical v 1 in
    let top = if bit then Int64.shift_left 1L 61 else 0L in
    of_u62 (Int64.logor shifted top)
end

(* Values near 0, near 2^62 - 1 and uniform in [0, 2^62). *)
let gen_u62 =
  let open QCheck.Gen in
  let near_top k = Int64.sub Ref64.mask (Int64.of_int k) in
  oneof
    [
      map Int64.of_int (int_range 0 1000);
      map near_top (int_range 0 1000);
      map (Int64.logand Ref64.mask) ui64;
    ]

(* Offsets of every sign and size: small, negative, near 2^62, and
   up to the ends of the [int64] range. *)
let gen_offset =
  let open QCheck.Gen in
  oneof
    [
      map Int64.of_int (int_range (-1000) 1000);
      map (fun k -> Int64.add Ref64.modulus (Int64.of_int k)) (int_range (-1000) 1000);
      map (fun k -> Int64.sub Int64.max_int (Int64.of_int k)) (int_range 0 1000);
      map (fun k -> Int64.add Int64.min_int (Int64.of_int k)) (int_range 0 1000);
      ui64;
    ]

let prop_matches_int64_reference =
  QCheck.Test.make ~name:"native-int point arithmetic equals the Int64 reference" ~count:2000
    (QCheck.make
       ~print:(fun (a, b, c, d) -> Printf.sprintf "%Ld %Ld %Ld %Ld" a b c d)
       QCheck.Gen.(quad gen_u62 gen_u62 gen_u62 gen_offset))
    (fun (a, b, c, d) ->
      let p = Point.of_u62 in
      let u = Point.to_u62 in
      (* [d] covers negative inputs (both raise) and ones >= 2^62
         (both reduce). *)
      let of_u62_agrees =
        match Ref64.of_u62 d with
        | r -> u (p d) = r
        | exception Invalid_argument m -> (
            match p d with _ -> false | exception Invalid_argument m' -> m = m')
      in
      u (p a) = a && of_u62_agrees
      && Int64.of_int (Point.distance_cw (p a) (p b)) = Ref64.distance_cw a b
      && u (Point.add_cw (p a) (Int64.to_int d)) = Ref64.add_cw a d
      && Point.in_cw_range ~from:(p a) ~until:(p b) (p c) = Ref64.in_cw_range ~from:a ~until:b c
      && Point.in_cw_range ~from:(p a) ~until:(p a) (p c) = Ref64.in_cw_range ~from:a ~until:a c
      && Point.in_cw_range ~from:(p a) ~until:(p b) (p b) = Ref64.in_cw_range ~from:a ~until:b b
      && List.for_all
           (fun bit -> u (Overlay.Debruijn.half_point ~bit (p a)) = Ref64.half_point ~bit a)
           [ false; true ])

let () =
  Alcotest.run "idspace"
    [
      ( "point",
        [
          Alcotest.test_case "float roundtrip" `Quick test_point_roundtrip;
          Alcotest.test_case "of_float domain" `Quick test_point_of_float_rejects;
          Alcotest.test_case "clockwise distance" `Quick test_distance_cw;
          Alcotest.test_case "add wraps" `Quick test_add_cw_wraps;
          Alcotest.test_case "in_cw_range" `Quick test_in_cw_range;
        ] );
      ( "interval",
        [
          Alcotest.test_case "basics" `Quick test_interval_basic;
          Alcotest.test_case "full ring" `Quick test_interval_full;
          Alcotest.test_case "sampling stays inside" `Quick test_interval_sample_inside;
        ] );
      ( "ring",
        [
          Alcotest.test_case "successor queries" `Quick test_ring_successor;
          Alcotest.test_case "empty ring" `Quick test_ring_empty;
          Alcotest.test_case "singleton ring" `Quick test_ring_singleton;
          Alcotest.test_case "responsibilities partition" `Quick test_responsibility_partition;
          Alcotest.test_case "populate cardinality" `Quick test_populate_cardinality;
          Alcotest.test_case "add/remove persistence" `Quick test_add_remove;
        ] );
      ( "estimate",
        [
          Alcotest.test_case "ln ln n scaling" `Slow test_estimate_scaling;
          Alcotest.test_case "group size from estimate" `Quick test_group_size_estimate;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_ring_matches_reference;
            prop_distance_triangle_cw;
            prop_successor_is_responsible;
            prop_interval_sample_contained;
            prop_matches_int64_reference;
          ] );
    ]
