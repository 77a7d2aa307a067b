(* Input graphs H: path validity against the linking rules (P1/P3),
   load balance (P2), congestion (P4), and construction-specific
   behaviour for Chord, Chord++ and distance halving. *)

open Idspace

let rng = Prng.Rng.create 555

let mk_ring n = Ring.populate (Prng.Rng.split rng) n

let validate_paths ov n_checks =
  let members = Ring.to_sorted_array ov.Overlay.Overlay_intf.ring in
  for _ = 1 to n_checks do
    let src = members.(Prng.Rng.int rng (Array.length members)) in
    let key = Point.random rng in
    let path = ov.Overlay.Overlay_intf.route ~src ~key in
    Alcotest.(check bool) "path validates" true (Overlay.Overlay_intf.path_ok ov path key)
  done

let test_chord_paths () = validate_paths (Overlay.Chord.make (mk_ring 1024)) 300
let test_debruijn_paths () = validate_paths (Overlay.Debruijn.make (mk_ring 1024)) 300

let test_route_ends_at_responsible () =
  let ring = mk_ring 512 in
  List.iter
    (fun ov ->
      for _ = 1 to 200 do
        let members = Ring.to_sorted_array ring in
        let src = members.(Prng.Rng.int rng (Array.length members)) in
        let key = Point.random rng in
        let path = ov.Overlay.Overlay_intf.route ~src ~key in
        let last = List.nth path (List.length path - 1) in
        Alcotest.(check bool) "ends at suc(key)" true
          (Point.equal last (Ring.successor_exn ring key))
      done)
    [ Overlay.Chord.make ring; Overlay.Debruijn.make ring; Overlay.Chord_pp.make ring ]

let test_route_starts_at_src () =
  let ring = mk_ring 256 in
  let ov = Overlay.Chord.make ring in
  let members = Ring.to_sorted_array ring in
  let src = members.(7) in
  let path = ov.Overlay.Overlay_intf.route ~src ~key:(Point.random rng) in
  Alcotest.(check bool) "starts at src" true (Point.equal (List.hd path) src)

let test_self_route () =
  let ring = mk_ring 64 in
  let ov = Overlay.Chord.make ring in
  let members = Ring.to_sorted_array ring in
  let src = members.(0) in
  (* A key owned by src routes in zero hops. *)
  let path = ov.Overlay.Overlay_intf.route ~src ~key:src in
  Alcotest.(check int) "single-node path" 1 (List.length path)

let test_chord_log_hops () =
  let ov = Overlay.Chord.make (mk_ring 4096) in
  let st = Overlay.Probe.path_lengths (Prng.Rng.split rng) ov ~searches:500 in
  (* lg 4096 = 12; greedy Chord averages ~lg(n)/2 + O(1). *)
  Alcotest.(check bool)
    (Printf.sprintf "mean %.1f below 12" st.mean_hops)
    true (st.mean_hops < 12.);
  Alcotest.(check bool)
    (Printf.sprintf "max %d below 2 lg n + 8" st.max_hops)
    true (st.max_hops <= 32)

let test_debruijn_hop_bound () =
  let ov = Overlay.Debruijn.make (mk_ring 4096) in
  let st = Overlay.Probe.path_lengths (Prng.Rng.split rng) ov ~searches:500 in
  (* halving_steps 4096 = 16, plus the successor walk. *)
  Alcotest.(check bool)
    (Printf.sprintf "max %d small" st.max_hops)
    true (st.max_hops <= Overlay.Debruijn.halving_steps 4096 + 8)

(* The Chord linking rule as first written: one successor search per
   stride 2^j, j = 0..61, plus the predecessor, sorted and
   de-duplicated as points. [Chord]'s rank-space rule must equal it. *)
let ref_chord_neighbors ring w =
  let acc = ref [] in
  for j = 61 downto 0 do
    let target = Point.add_cw w (1 lsl j) in
    let f = Ring.successor_exn ring target in
    if not (Point.equal f w) then
      match !acc with
      | prev :: _ when Point.equal prev f -> ()
      | _ -> acc := f :: !acc
  done;
  let with_pred =
    match Ring.predecessor ring w with
    | Some p when not (Point.equal p w) -> p :: !acc
    | _ -> !acc
  in
  List.sort_uniq Point.compare with_pred

(* P3: each neighbour is derivable from the ring alone — the
   predecessor or [suc(w + 2^j)] for some [j] — and every such
   successor other than [w] is a neighbour. *)
let test_chord_fingers_are_successors () =
  let ring = mk_ring 256 in
  let ov = Overlay.Chord.make ring in
  let members = Ring.to_sorted_array ring in
  let w = members.(13) in
  let ns = ov.Overlay.Overlay_intf.neighbors w in
  let fingers =
    List.init 62 (fun j -> Ring.successor_exn ring (Point.add_cw w (1 lsl j)))
  in
  Alcotest.(check bool) "has fingers" true (List.length ns > 1);
  List.iter
    (fun f ->
      Alcotest.(check bool) "neighbour verifiable" true
        (List.exists (Point.equal f) fingers
        || Point.equal f (Ring.predecessor ring w |> Option.get)))
    ns;
  List.iter
    (fun f ->
      if not (Point.equal f w) then
        Alcotest.(check bool) "finger linked" true (List.exists (Point.equal f) ns))
    fingers

(* Every member plus off-ring points: the members' key-space
   neighbours, ring-wrap points and a few uniform draws. *)
let chord_probes r ring =
  let top = Point.add_cw Point.zero (-1) in
  Ring.fold
    (fun p acc -> p :: Point.add_cw p 1 :: Point.add_cw p (-1) :: acc)
    ring
    (Point.zero :: top :: List.init 16 (fun _ -> Point.random r))

let chord_rule_agrees ring probes =
  let ov = Overlay.Chord.make ring in
  List.for_all
    (fun w -> ov.Overlay.Overlay_intf.neighbors_in ring w = ref_chord_neighbors ring w)
    probes

let prop_chord_rule_random =
  QCheck.Test.make ~name:"chord rule = reference: random rings"
    ~count:20
    QCheck.(pair small_nat (int_range 1 3000))
    (fun (seed, n) ->
      let r = Prng.Rng.create seed in
      let ring = Ring.populate r n in
      chord_rule_agrees ring (chord_probes r ring))

(* IDs packed within 2^20 of both sides of the wrap point, so strides
   and finger gaps cross it; some rings add a uniform sprinkle. *)
let prop_chord_rule_wrap =
  QCheck.Test.make ~name:"chord rule = reference: wrap clusters"
    ~count:40
    QCheck.(triple small_nat (int_range 1 200) (int_range 0 20))
    (fun (seed, n, spread) ->
      let r = Prng.Rng.create seed in
      let near = Int64.shift_left 1L 20 in
      let clustered =
        List.init n (fun i ->
            let off =
              Int64.to_int (Int64.rem (Int64.logand (Prng.Rng.bits64 r) Int64.max_int) near)
            in
            Point.add_cw Point.zero (if i mod 2 = 0 then off else -1 - off))
      in
      let ring = Ring.of_list (clustered @ List.init spread (fun _ -> Point.random r)) in
      chord_rule_agrees ring (chord_probes r ring))

(* Rings where a stride wraps into an ID's own arc, so every larger
   stride lands on the ID itself: singletons, pairs, and one-arc
   clusters that leave most of the ring empty. *)
let test_chord_rule_small_rings () =
  let r = Prng.Rng.create 41 in
  let pt = Point.add_cw Point.zero in
  let top = -1 and half = 1 lsl 61 in
  let x = Point.random r in
  let cluster c = List.init 30 (fun i -> Point.add_cw c (i lsl 25)) in
  List.iteri
    (fun i ps ->
      let ring = Ring.of_list ps in
      Alcotest.(check bool) (Printf.sprintf "ring %d" i) true
        (chord_rule_agrees ring (chord_probes r ring)))
    [
      [ pt 0 ];
      [ pt top ];
      [ x ];
      [ pt 0; pt 1 ];
      [ pt 0; pt (1 lsl 60) ];
      [ pt top; pt 0 ];
      [ x; Point.add_cw x half ];
      [ x; Point.add_cw x (half + 1) ];
      [ x; Point.add_cw x (half - 1) ];
      cluster x;
      cluster (pt (top - (1 lsl 28)));
    ]

(* Rings grown by single adds carry a delta of new points; the rule
   must read ranks through it exactly as through a compact ring. *)
let test_chord_rule_grown () =
  let r = Prng.Rng.create 17 in
  List.iter
    (fun n ->
      let ring = ref (Ring.populate r n) in
      for i = 1 to 2 * int_of_float (sqrt (float_of_int n)) + 4 do
        ring := Ring.add (Point.random r) !ring;
        if i mod 7 = 0 then
          Alcotest.(check bool) (Printf.sprintf "n = %d, %d adds" n i) true
            (chord_rule_agrees !ring (chord_probes r !ring))
      done)
    [ 1; 50; 2000 ]

(* The table-read [neighbors] of a view (the rule itself for the
   probes off the ring), its [neighbors_in] and Chord++'s shared table
   are one rule, on compact and grown rings. *)
let test_chord_table_and_chordpp_agree () =
  let r = Prng.Rng.create 29 in
  let base = Ring.populate r 1500 in
  let grown = List.fold_left (fun t _ -> Ring.add (Point.random r) t) base (List.init 20 Fun.id) in
  List.iter
    (fun ring ->
      let chord = Overlay.Chord.make ring and pp = Overlay.Chord_pp.make ~salt:5 ring in
      List.iter
        (fun w ->
          let want = ref_chord_neighbors ring w in
          Alcotest.(check bool) "table = reference" true
            (chord.Overlay.Overlay_intf.neighbors w = want);
          Alcotest.(check bool) "chord++ = reference" true
            (pp.Overlay.Overlay_intf.neighbors w = want);
          Alcotest.(check bool) "chord++ neighbors_in = reference" true
            (pp.Overlay.Overlay_intf.neighbors_in ring w = want))
        (chord_probes r ring))
    [ base; grown ]

let test_chord_degree_logarithmic () =
  let ov = Overlay.Chord.make (mk_ring 4096) in
  let d = Overlay.Probe.degrees (Prng.Rng.split rng) ov ~sample:100 in
  (* lg 4096 = 12 distinct fingers expected, plus predecessor. *)
  Alcotest.(check bool) (Printf.sprintf "mean degree %.1f ~ lg n" d.mean) true
    (d.mean > 6. && d.mean < 30.)

let test_debruijn_constant_degree () =
  let d4k =
    Overlay.Probe.degrees (Prng.Rng.split rng) (Overlay.Debruijn.make (mk_ring 4096))
      ~sample:200
  in
  let d16k =
    Overlay.Probe.degrees (Prng.Rng.split rng) (Overlay.Debruijn.make (mk_ring 16384))
      ~sample:200
  in
  (* Expected O(1): mean should not grow materially with n. *)
  Alcotest.(check bool)
    (Printf.sprintf "degree flat: %.1f vs %.1f" d4k.mean d16k.mean)
    true
    (d16k.mean < d4k.mean +. 2.)

let test_neighbors_exclude_self () =
  let ring = mk_ring 128 in
  List.iter
    (fun ov ->
      Ring.iter
        (fun w ->
          Alcotest.(check bool) "no self loop" false
            (List.exists (Point.equal w) (ov.Overlay.Overlay_intf.neighbors w)))
        ring)
    [ Overlay.Chord.make ring; Overlay.Debruijn.make ring ]

(* [neighbors_in] is the table-free form of [rebuild]'s linking rule,
   on a ring the view was not built over. *)
let test_neighbors_in_matches_rebuild () =
  let ring = mk_ring 256 in
  let ring' = Ring.add_batch (List.init 8 (fun _ -> Point.random rng)) ring in
  List.iter
    (fun ov ->
      let rebuilt = ov.Overlay.Overlay_intf.rebuild ring' in
      Ring.iter
        (fun w ->
          Alcotest.(check bool) "same neighbour list" true
            (ov.Overlay.Overlay_intf.neighbors_in ring' w
            = rebuilt.Overlay.Overlay_intf.neighbors w))
        ring')
    [ Overlay.Chord.make ring; Overlay.Chord_pp.make ~salt:3 ring; Overlay.Debruijn.make ring ]

let test_load_balance_bounded () =
  let ov = Overlay.Chord.make (mk_ring 8192) in
  let lb = Overlay.Probe.load_balance ov in
  (* Max arc is ~ln n/n w.h.p.: the (1 + delta'') of P2 at this scale. *)
  Alcotest.(check bool) (Printf.sprintf "load %.2f < 3 ln n" lb) true
    (lb < 3. *. log 8192.)

let test_congestion_bounded () =
  let ov = Overlay.Chord.make (mk_ring 2048) in
  let c = Overlay.Probe.congestion (Prng.Rng.split rng) ov ~searches:3000 in
  (* P4: congestion O(log^c n / n); the probe normalises by ln n / n,
     so the statistic should be a modest constant. *)
  Alcotest.(check bool) (Printf.sprintf "congestion stat %.2f bounded" c) true (c < 40.)

let test_is_neighbor_and_path_ok_reject () =
  let ring = mk_ring 64 in
  let ov = Overlay.Chord.make ring in
  let members = Ring.to_sorted_array ring in
  let a = members.(0) and far = members.(32) in
  (* A fabricated path that jumps to an unlinked node must fail
     validation. *)
  let key = Point.random rng in
  let resp = Ring.successor_exn ring key in
  if not (Overlay.Overlay_intf.is_neighbor ov far a) then
    Alcotest.(check bool) "forged path rejected" false
      (Overlay.Overlay_intf.path_ok ov [ a; far; resp ] key)
  else ()

(* The distance-halving rule once circled the ring forever on two
   kinds of image arc: one that holds every ID (a ring of two, or a
   ring crowded into a quarter of the ID space), and an empty one
   whose ends halve to the same point (adjacent IDs [2k], [2k+1]).
   Both must now build, and route along links. *)
let test_debruijn_degenerate_arcs () =
  let pt = Point.add_cw Point.zero in
  List.iter
    (fun ps ->
      let ring = Ring.of_list ps in
      let ov = Overlay.Debruijn.make ring in
      Ring.iter
        (fun w ->
          let key = Point.add_cw w 7 in
          Alcotest.(check bool) "path validates" true
            (Overlay.Overlay_intf.path_ok ov (ov.Overlay.Overlay_intf.route ~src:w ~key) key))
        ring)
    [
      [ pt 0x1000; pt 0x1001; pt (1 lsl 60); pt 1; pt 0 ];
      [ pt 5; pt (1 lsl 61) ];
      List.init 8 (fun i -> pt ((1 lsl 58) + (i lsl 40)));
    ]

let test_empty_ring_rejected () =
  Alcotest.check_raises "chord" (Invalid_argument "Chord.make: empty ring") (fun () ->
      ignore (Overlay.Chord.make Ring.empty));
  Alcotest.check_raises "debruijn" (Invalid_argument "Debruijn.make: empty ring") (fun () ->
      ignore (Overlay.Debruijn.make Ring.empty))

let prop_all_hops_are_links =
  QCheck.Test.make ~name:"every chord hop follows a link" ~count:50
    QCheck.(pair small_int (float_range 0. 0.999))
    (fun (seed, keyf) ->
      let r = Prng.Rng.create (seed + 100) in
      let ring = Ring.populate r 128 in
      let ov = Overlay.Chord.make ring in
      let members = Ring.to_sorted_array ring in
      let src = members.(Prng.Rng.int r (Array.length members)) in
      let key = Point.of_float keyf in
      Overlay.Overlay_intf.path_ok ov (ov.Overlay.Overlay_intf.route ~src ~key) key)

let prop_debruijn_all_hops_are_links =
  QCheck.Test.make ~name:"every debruijn hop follows a link" ~count:50
    QCheck.(pair small_int (float_range 0. 0.999))
    (fun (seed, keyf) ->
      let r = Prng.Rng.create (seed + 200) in
      let ring = Ring.populate r 128 in
      let ov = Overlay.Debruijn.make ring in
      let members = Ring.to_sorted_array ring in
      let src = members.(Prng.Rng.int r (Array.length members)) in
      let key = Point.of_float keyf in
      Overlay.Overlay_intf.path_ok ov (ov.Overlay.Overlay_intf.route ~src ~key) key)

(* -- chord++ draw parity ------------------------------------------- *)

(* Frozen reference of the native-int SplitMix finalizer the salted
   chord++ coin draws run on. Golden digests depend on the exact
   output sequence, so the constants (62-bit truncations of the
   SplitMix64 multipliers, kept odd) and shifts are restated here
   verbatim: a well-meaning "upgrade" of the production mixer must
   fail this test, not silently re-roll every coin. *)
let ref_mix_int z =
  let mask62 = (1 lsl 62) - 1 in
  let z = z land mask62 in
  let z = (z lxor (z lsr 31)) * 0x2F58476D1CE4E5B9 land mask62 in
  let z = (z lxor (z lsr 29)) * 0x14D049BB133111EB land mask62 in
  z lxor (z lsr 32)

let test_mix_int_frozen_values () =
  (* Pinned outputs: these fail if reference and production drift in
     tandem. (0 is the finalizer's fixed point; -1 masks to 2^62-1.) *)
  List.iter
    (fun (z, want) ->
      Alcotest.(check int) (Printf.sprintf "mix_int %d" z) want (Prng.Splitmix.mix_int z))
    [
      (0, 0x0);
      (1, 0x1bda8eef98a1e434);
      (2, 0x32e78b7028c06cd1);
      (42, 0x14be4cc3c17dc526);
      (2654435761, 0x3576245845410e4c);
      (0x3FFFFFFFFFFFFFFF, 0x1aa0115cd7159a1);
      (-1, 0x1aa0115cd7159a1);
      (123456789123456789, 0x3e860e03e0668d31);
    ]

(* Reference walk of the chord++ route: same greedy/eligible logic
   against the overlay's own neighbour lists, coins drawn from
   [ref_mix_int]. Any change to the production draw sequence (seed
   derivation, per-hop stride, mixer rounds) diverges here. *)
let ref_route_pp ring neighbors ~salt ~src ~key =
  let resp = Ring.successor_exn ring key in
  if Point.equal src resp then [ src ]
  else begin
    let seed = ref_mix_int (salt lxor (src :> int) lxor ref_mix_int (key :> int)) in
    let rec go current acc hops =
      let scur =
        match Ring.strict_successor ring current with Some s -> s | None -> assert false
      in
      let arc = Point.distance_cw current scur in
      let dist_key = Point.distance_cw current key in
      if arc = 0 || (dist_key > 0 && dist_key <= arc) then List.rev (scur :: acc)
      else begin
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
                List.fold_left (fun acc (_, d) -> if d > acc then d else acc) 0 candidates
              in
              let eligible =
                List.filter (fun (_, d) -> d >= (greedy + 1) / 2) candidates
              in
              let eligible =
                List.sort (fun (a, _) (b, _) -> Point.compare a b) eligible
              in
              let k = List.length eligible in
              let idx = ref_mix_int (seed + (hops * 2654435761)) mod k in
              fst (List.nth eligible idx)
        in
        go next (next :: acc) (hops + 1)
      end
    in
    go src [ src ] 0
  end

(* Frozen reference of Chord's greedy route as it was written over
   points, before routes ran in ranks: at each hop, the successor if
   the key falls before it, else the neighbour farthest clockwise
   that stays short of the key (ties impossible between distinct
   points), else the successor. *)
let ref_route_chord ring neighbors ~src ~key =
  let resp = Ring.successor_exn ring key in
  if Point.equal src resp then [ src ]
  else begin
    let rec go current acc =
      let scur = Ring.strict_successor_exn ring current in
      let arc = Point.distance_cw current scur in
      let dkey = Point.distance_cw current key in
      if arc = 0 || (dkey > 0 && dkey <= arc) then List.rev (scur :: acc)
      else begin
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
        go next (next :: acc)
      end
    in
    go src [ src ]
  end

(* Frozen reference of the distance-halving route over points: [steps]
   halving steps toward a point just counter-clockwise of the key,
   recording each new responsible ID, then successor hops to
   [suc key]. *)
let ref_route_debruijn ring ~src ~key =
  let resp = Ring.successor_exn ring key in
  if Point.equal src resp then [ src ]
  else begin
    let steps = Overlay.Debruijn.halving_steps (Ring.cardinal ring) in
    let slack = 1 lsl (62 - steps) in
    let key_bits = (Point.add_cw key (-2 * slack) :> int) in
    let continuous = ref src and path = ref [ src ] and current = ref src in
    for i = steps downto 1 do
      let bit = (key_bits lsr (62 - i)) land 1 = 1 in
      continuous := Overlay.Debruijn.half_point ~bit !continuous;
      let node = Ring.successor_exn ring !continuous in
      if not (Point.equal node !current) then begin
        path := node :: !path;
        current := node
      end
    done;
    while not (Point.equal !current resp) do
      current := Ring.strict_successor_exn ring !current;
      path := !current :: !path
    done;
    List.rev !path
  end

(* The rings of the table and route laws: uniform; packed on both
   sides of the wrap point; grown by single adds with the delta still
   pending; and the smallest rings, n = 1, 2, 3. *)
let law_ring seed kind n =
  let r = Prng.Rng.create seed in
  match kind with
  | 0 -> Ring.populate r n
  | 1 ->
      Ring.of_list
        (List.init n (fun i ->
             let off = Prng.Rng.int r (1 lsl 20) in
             Point.add_cw Point.zero (if i mod 2 = 0 then off else -1 - off)))
  | 2 ->
      (* k adds to n points fold into the base only once k^2 >= n + k. *)
      let k = max 1 (int_of_float (sqrt (float_of_int n)) - 1) in
      List.fold_left
        (fun t _ -> Ring.add (Point.random r) t)
        (Ring.populate r (n + 2))
        (List.init k Fun.id)
  | _ -> Ring.populate r (1 + (n mod 3))

let law_arb = QCheck.(triple small_nat (int_range 0 3) (int_range 1 400))

(* Every rank's table row, read back through [neighbors], equals the
   table-free rule [neighbors_in] and, for the Chord family, the
   reference rule — order included — on all three constructions. *)
let prop_table_is_rule =
  QCheck.Test.make ~name:"table rows = linking rule, all constructions" ~count:60 law_arb
    (fun (seed, kind, n) ->
      let ring = law_ring seed kind n in
      List.for_all
        (fun (ov, chord_family) ->
          Ring.fold
            (fun w ok ->
              let row = ov.Overlay.Overlay_intf.neighbors w in
              ok
              && row = ov.Overlay.Overlay_intf.neighbors_in ring w
              && ((not chord_family) || row = ref_chord_neighbors ring w))
            ring true)
        [
          (Overlay.Chord.make ring, true);
          (Overlay.Chord_pp.make ~salt:seed ring, true);
          (Overlay.Debruijn.make ring, false);
        ])

(* Rank routes equal the frozen point walks, from members and from
   points off the ring. On a ring of one ID the frozen Chord walks
   from an off-ring point end in a self-hop [w; w], which the rank
   walk does not take: those rings route from their member only. *)
let prop_rank_routes_are_frozen_walks =
  QCheck.Test.make ~name:"rank routes = frozen point walks" ~count:60 law_arb
    (fun (seed, kind, n) ->
      let ring = law_ring seed kind n in
      let r = Prng.Rng.create (seed + 1) in
      let nbrs = ref_chord_neighbors ring in
      let chord = Overlay.Chord.make ring
      and pp = Overlay.Chord_pp.make ~salt:seed ring
      and db = Overlay.Debruijn.make ring in
      List.for_all
        (fun _ ->
          let m = Ring.random_member r ring in
          let off_ring = Ring.cardinal ring > 1 && Prng.Rng.int r 4 = 0 in
          let src = if off_ring then Point.add_cw m (-1 - Prng.Rng.int r 1000) else m in
          let key = if Prng.Rng.int r 8 = 0 then Ring.random_member r ring else Point.random r in
          chord.Overlay.Overlay_intf.route ~src ~key = ref_route_chord ring nbrs ~src ~key
          && pp.Overlay.Overlay_intf.route ~src ~key = ref_route_pp ring nbrs ~salt:seed ~src ~key
          && db.Overlay.Overlay_intf.route ~src ~key = ref_route_debruijn ring ~src ~key)
        (List.init 30 Fun.id))

let test_chord_pp_draw_parity () =
  let ring = mk_ring 512 in
  let members = Ring.to_sorted_array ring in
  List.iter
    (fun salt ->
      let ov = Overlay.Chord_pp.make ~salt ring in
      for _ = 1 to 100 do
        let src = members.(Prng.Rng.int rng (Array.length members)) in
        let key = Point.random rng in
        let got = ov.Overlay.Overlay_intf.route ~src ~key in
        let want =
          ref_route_pp ring ov.Overlay.Overlay_intf.neighbors ~salt ~src ~key
        in
        Alcotest.(check bool) "path equals frozen-reference walk" true (got = want)
      done)
    [ 0; 1; 7 ]

(* Chord++. *)

let test_chordpp_paths_validate () =
  let ring = Ring.populate (Prng.Rng.split rng) 512 in
  let ov = Overlay.Chord_pp.make ring in
  let members = Ring.to_sorted_array ring in
  for _ = 1 to 200 do
    let src = members.(Prng.Rng.int rng (Array.length members)) in
    let key = Point.random rng in
    let path = ov.Overlay.Overlay_intf.route ~src ~key in
    Alcotest.(check bool) "path validates" true
      (Overlay.Overlay_intf.path_ok ov path key)
  done

let test_chordpp_deterministic_per_salt () =
  let ring = Ring.populate (Prng.Rng.split rng) 256 in
  let ov1 = Overlay.Chord_pp.make ~salt:1 ring in
  let ov1' = Overlay.Chord_pp.make ~salt:1 ring in
  let members = Ring.to_sorted_array ring in
  let src = members.(0) and key = Point.of_float 0.777 in
  Alcotest.(check bool) "same salt, same path" true
    (ov1.Overlay.Overlay_intf.route ~src ~key = ov1'.Overlay.Overlay_intf.route ~src ~key)

let test_chordpp_salts_diverge () =
  let ring = Ring.populate (Prng.Rng.split rng) 1024 in
  let members = Ring.to_sorted_array ring in
  let ovs = Array.init 2 (fun salt -> Overlay.Chord_pp.make ~salt ring) in
  let diverged = ref 0 and total = ref 0 in
  for _ = 1 to 100 do
    let src = members.(Prng.Rng.int rng (Array.length members)) in
    let key = Point.random rng in
    let p0 = ovs.(0).Overlay.Overlay_intf.route ~src ~key in
    let p1 = ovs.(1).Overlay.Overlay_intf.route ~src ~key in
    if List.length p0 > 3 then begin
      incr total;
      if p0 <> p1 then incr diverged
    end
  done;
  Alcotest.(check bool)
    (Printf.sprintf "salted paths diverge (%d/%d)" !diverged !total)
    true
    (!diverged * 2 > !total)

let test_chordpp_same_linking_rule () =
  let ring = Ring.populate (Prng.Rng.split rng) 256 in
  let chord = Overlay.Chord.make ring in
  let pp = Overlay.Chord_pp.make ring in
  Ring.iter
    (fun w ->
      Alcotest.(check bool) "identical neighbour sets" true
        (chord.Overlay.Overlay_intf.neighbors w = pp.Overlay.Overlay_intf.neighbors w))
    ring

let test_chordpp_hop_bound () =
  let ring = Ring.populate (Prng.Rng.split rng) 4096 in
  let ov = Overlay.Chord_pp.make ring in
  let st = Overlay.Probe.path_lengths (Prng.Rng.split rng) ov ~searches:300 in
  Alcotest.(check bool)
    (Printf.sprintf "max %d within bound" st.Overlay.Probe.max_hops)
    true
    (st.Overlay.Probe.max_hops <= 40)

(* Churn must keep a salted view's salt: after one-ID and two-ID
   batches of [depart_many] and [join_many], the graph's overlay routes
   exactly like a fresh [Chord_pp.make ~salt] over the new ring, on a
   fixed set of (src, key) pairs where the salt changes the route. *)
let test_chordpp_churn_keeps_salt () =
  let salt = 3 in
  let pop =
    Adversary.Population.generate (Prng.Rng.split rng) ~n:512 ~beta:0.05
      ~strategy:Adversary.Placement.Uniform
  in
  let g =
    Tinygroups.Group_graph.build_direct
      ~params:{ Tinygroups.Params.default with beta = 0.05 }
      ~population:pop
      ~overlay:(Overlay.Chord_pp.make ~salt (Adversary.Population.ring pop))
      ~member_oracle:Experiments.Common.h1 ()
  in
  let old_pair = Tinygroups.Membership.make_old_pair ~failure:`Majority g None in
  let member_oracle = Hashing.Oracle.make ~system_key:"overlay-test" ~label:"h2" in
  let metrics = Sim.Metrics.create () in
  let keys = Array.init 200 (fun _ -> Point.random rng) in
  let check label g' =
    let ov = Tinygroups.Group_graph.overlay g' in
    let ring = ov.Overlay.Overlay_intf.ring in
    let want = Overlay.Chord_pp.make ~salt ring in
    let unsalted = Overlay.Chord_pp.make ring in
    let members = Ring.to_sorted_array ring in
    let salt_matters = ref false in
    Array.iteri
      (fun i key ->
        let src = members.(i * 37 mod Array.length members) in
        let got = ov.Overlay.Overlay_intf.route ~src ~key in
        Alcotest.(check bool) (label ^ ": same route as a fresh salted view") true
          (got = want.Overlay.Overlay_intf.route ~src ~key);
        if got <> unsalted.Overlay.Overlay_intf.route ~src ~key then salt_matters := true)
      keys;
    Alcotest.(check bool) (label ^ ": the salt changes some route") true !salt_matters
  in
  let leaders = Tinygroups.Group_graph.leaders g in
  let g1, _ = Tinygroups.Dynamic.depart_many g ~ids:[ leaders.(5) ] in
  check "one-ID depart_many" g1;
  let g2, _ = Tinygroups.Dynamic.depart_many g ~ids:[ leaders.(9); leaders.(200) ] in
  check "depart_many" g2;
  let g3, _ =
    Tinygroups.Dynamic.join_many (Prng.Rng.split rng) metrics g ~old_pair ~member_oracle
      ~ids:[ (Point.of_float 0.123456789, false) ]
  in
  check "one-ID join_many" g3;
  let g4, _ =
    Tinygroups.Dynamic.join_many (Prng.Rng.split rng) metrics g ~old_pair ~member_oracle
      ~ids:[ (Point.of_float 0.31415926, false); (Point.of_float 0.8675309, true) ]
  in
  check "join_many" g4

let () =
  Alcotest.run "overlay"
    [
      ( "routing",
        [
          Alcotest.test_case "chord paths validate" `Quick test_chord_paths;
          Alcotest.test_case "debruijn paths validate" `Quick test_debruijn_paths;
          Alcotest.test_case "routes end at responsible ID" `Quick test_route_ends_at_responsible;
          Alcotest.test_case "routes start at source" `Quick test_route_starts_at_src;
          Alcotest.test_case "self route" `Quick test_self_route;
        ] );
      ( "P1-P4",
        [
          Alcotest.test_case "chord O(log n) hops" `Quick test_chord_log_hops;
          Alcotest.test_case "debruijn hop bound" `Quick test_debruijn_hop_bound;
          Alcotest.test_case "chord degree ~ lg n" `Quick test_chord_degree_logarithmic;
          Alcotest.test_case "debruijn O(1) degree" `Slow test_debruijn_constant_degree;
          Alcotest.test_case "load balance (P2)" `Slow test_load_balance_bounded;
          Alcotest.test_case "congestion (P4)" `Slow test_congestion_bounded;
        ] );
      ( "linking-rules",
        [
          Alcotest.test_case "fingers verifiable (P3)" `Quick test_chord_fingers_are_successors;
          Alcotest.test_case "no self loops" `Quick test_neighbors_exclude_self;
          Alcotest.test_case "neighbors_in = rebuild's neighbors" `Quick
            test_neighbors_in_matches_rebuild;
          Alcotest.test_case "forged paths rejected" `Quick test_is_neighbor_and_path_ok_reject;
          Alcotest.test_case "empty ring rejected" `Quick test_empty_ring_rejected;
          Alcotest.test_case "debruijn degenerate arcs" `Quick test_debruijn_degenerate_arcs;
          Alcotest.test_case "chord rule on small rings" `Quick test_chord_rule_small_rings;
          Alcotest.test_case "chord rule on grown rings" `Quick test_chord_rule_grown;
          Alcotest.test_case "chord table = rule = chord++" `Quick
            test_chord_table_and_chordpp_agree;
          QCheck_alcotest.to_alcotest prop_chord_rule_random;
          QCheck_alcotest.to_alcotest prop_chord_rule_wrap;
        ] );
      ( "chord++",
        [
          Alcotest.test_case "paths validate" `Quick test_chordpp_paths_validate;
          Alcotest.test_case "deterministic per salt" `Quick test_chordpp_deterministic_per_salt;
          Alcotest.test_case "salts diverge" `Quick test_chordpp_salts_diverge;
          Alcotest.test_case "same linking rule" `Quick test_chordpp_same_linking_rule;
          Alcotest.test_case "hop bound" `Quick test_chordpp_hop_bound;
          Alcotest.test_case "churn keeps the salt" `Quick test_chordpp_churn_keeps_salt;
        ] );
      ( "chord++-coins",
        [
          Alcotest.test_case "mix_int frozen values" `Quick test_mix_int_frozen_values;
          Alcotest.test_case "route = frozen-reference draws" `Quick
            test_chord_pp_draw_parity;
        ] );
      ( "rank-space",
        List.map QCheck_alcotest.to_alcotest
          [ prop_table_is_rule; prop_rank_routes_are_frozen_walks ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_all_hops_are_links; prop_debruijn_all_hops_are_links ] );
    ]
