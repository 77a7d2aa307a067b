(* The labelled random-oracle families: determinism, independence
   between labels, range discipline, and uniformity of outputs. *)

let oracle ?(key = "test-system") label = Hashing.Oracle.make ~system_key:key ~label

let test_deterministic () =
  let h = oracle "h1" in
  Alcotest.(check int64) "same query, same answer"
    (Hashing.Oracle.query_string h "hello")
    (Hashing.Oracle.query_string h "hello");
  Alcotest.(check int64) "numeric too"
    (Hashing.Oracle.query_u62 h 12345L)
    (Hashing.Oracle.query_u62 h 12345L)

let test_label_independence () =
  let h1 = oracle "h1" and h2 = oracle "h2" in
  Alcotest.(check bool) "labels give different functions" true
    (Hashing.Oracle.query_string h1 "x" <> Hashing.Oracle.query_string h2 "x")

let test_system_key_independence () =
  let a = oracle ~key:"deploy-a" "h1" and b = oracle ~key:"deploy-b" "h1" in
  Alcotest.(check bool) "deployments give different functions" true
    (Hashing.Oracle.query_string a "x" <> Hashing.Oracle.query_string b "x")

let test_same_parameters_same_function () =
  let a = oracle "h1" and b = oracle "h1" in
  Alcotest.(check int64) "reconstructible by any participant"
    (Hashing.Oracle.query_u62 a 42L)
    (Hashing.Oracle.query_u62 b 42L)

let test_range () =
  let h = oracle "range" in
  for i = 0 to 1000 do
    let v = Hashing.Oracle.query_u62 h (Int64.of_int i) in
    Alcotest.(check bool) "in [0, 2^62)" true
      (v >= 0L && v <= Hashing.Oracle.u62_mask)
  done

let test_indexed_distinct () =
  let h = oracle "h1" in
  (* h(w, i) for i = 1..g must give g distinct points (else groups
     would systematically collapse). *)
  let vals = List.init 20 (fun i -> Hashing.Oracle.query_indexed h 987654321L (i + 1)) in
  let distinct = List.sort_uniq Int64.compare vals in
  Alcotest.(check int) "20 distinct draws" 20 (List.length distinct)

let test_indexed_vs_pair_encoding () =
  let h = oracle "h1" in
  (* (w, i) and (w', i') with the same concatenated bits must not
     collide: check a classic ambiguity pattern. *)
  let a = Hashing.Oracle.query_indexed h 1L 2 in
  let b = Hashing.Oracle.query_indexed h 12L 0xFFFF in
  Alcotest.(check bool) "no encoding ambiguity" true (a <> b)

let test_pair_order_matters () =
  let h = oracle "pair" in
  Alcotest.(check bool) "pair is ordered" true
    (Hashing.Oracle.query_pair h 1L 2L <> Hashing.Oracle.query_pair h 2L 1L)

let test_to_unit_float () =
  Alcotest.(check (float 1e-9)) "zero" 0. (Hashing.Oracle.to_unit_float 0L);
  let almost_one = Hashing.Oracle.to_unit_float Hashing.Oracle.u62_mask in
  Alcotest.(check bool) "mask maps below 1" true (almost_one < 1. && almost_one > 0.9999)

let test_label_accessor () =
  Alcotest.(check string) "label" "h2" (Hashing.Oracle.label (oracle "h2"))

let test_uniformity_chi_square () =
  (* The random-oracle assumption is load-bearing (Lemma 6, Lemma 11):
     outputs must be uniform. *)
  let h = oracle "uniformity" in
  let hist = Stats.Histogram.create ~bins:32 () in
  for i = 0 to 19_999 do
    Stats.Histogram.add hist
      (Hashing.Oracle.to_unit_float (Hashing.Oracle.query_u62 h (Int64.of_int i)))
  done;
  let stat = Stats.Histogram.chi_square_uniform hist in
  let critical = Stats.Histogram.chi_square_critical_99 ~dof:31 in
  Alcotest.(check bool)
    (Printf.sprintf "chi2 %.1f below 99%% critical %.1f" stat critical)
    true (stat < critical)

let prop_outputs_in_range =
  QCheck.Test.make ~name:"string queries stay in [0, 2^62)" ~count:500 QCheck.string
    (fun s ->
      let v = Hashing.Oracle.query_string (oracle "prop") s in
      v >= 0L && v <= Hashing.Oracle.u62_mask)

let prop_distinct_inputs_distinct_outputs =
  QCheck.Test.make ~name:"no collisions across random inputs" ~count:500
    QCheck.(pair string string)
    (fun (a, b) ->
      let h = oracle "prop2" in
      a = b || Hashing.Oracle.query_string h a <> Hashing.Oracle.query_string h b)

(* Known answers, computed by MACing the encoded message through the
   general [hmac_with] path. Every group, PoW identity and KV key in
   the golden digests is a function of these bytes. *)

let kat = oracle ~key:"kat-system" "h1"

(* A PoW-style [sigma lxor r]: bit 63 set. *)
let pow_input = Int64.logxor 0x3FFF_FFFF_FFFF_FFF0L 0xC000_0000_0000_0AAAL

let kat_u62 =
  [
    (0L, 3164779248154934823L);
    (1L, 4365272346524795084L);
    (12345L, 4481194336901462964L);
    (-1L, 1938749932267382279L);
    (Int64.min_int, 3735581920046939280L);
    (Int64.max_int, 442126401308193204L);
    (pow_input, 3362465906463804354L);
  ]

let kat_indexed =
  [
    ((0L, 0), 3183119031799375499L);
    ((987654321L, 1), 228158950053197365L);
    ((0x3FFF_FFFF_FFFF_FFFFL, 14), 4502455500712769682L);
    ((-1L, 3), 3827395624329874505L);
    ((Int64.min_int, 1), 3019616116363333318L);
    ((5L, -1), 2850120840650798528L);
    ((5L, max_int), 2475432421736278362L);
    ((5L, min_int), 2016319087087548094L);
  ]

let kat_pair =
  [
    ((1L, 2L), 2176894815494425818L);
    ((2L, 1L), 2666826899725548019L);
    ((-1L, Int64.min_int), 2161567185954672089L);
    ((Int64.min_int, -1L), 1822768722345165713L);
    ((pow_input, 7L), 250912514935392593L);
  ]

let kat_message n = String.init n (fun i -> Char.chr (((i * 37) + 11) land 0xFF))

let kat_string =
  [
    (kat_message 0, 1870137938430804255L);
    (kat_message 1, 2049158760410293732L);
    (kat_message 55, 1726203037711382535L);
    (kat_message 56, 781403732772405869L);
    (kat_message 63, 872305902015063349L);
    (kat_message 64, 1995981733238333141L);
    (kat_message 119, 2825082758050182547L);
    (kat_message 120, 2400885397824752484L);
    ("hello", 3716766615145283773L);
    ("key-00042", 1861275809665267646L);
    ("resource/17", 2643268954903338744L);
  ]

let test_known_answers () =
  let open Hashing.Oracle in
  List.iter
    (fun (v, want) -> Alcotest.(check int64) (Printf.sprintf "u62 %Ld" v) want (query_u62 kat v))
    kat_u62;
  List.iter
    (fun ((w, i), want) ->
      Alcotest.(check int64) (Printf.sprintf "indexed %Ld %d" w i) want (query_indexed kat w i))
    kat_indexed;
  List.iter
    (fun ((a, b), want) ->
      Alcotest.(check int64) (Printf.sprintf "pair %Ld %Ld" a b) want (query_pair kat a b))
    kat_pair;
  List.iter
    (fun (m, want) ->
      Alcotest.(check int64)
        (Printf.sprintf "string of %d bytes" (String.length m))
        want (query_string kat m))
    kat_string;
  Alcotest.(check int) "draw 987654321 1" 228158950053197365 (draw_indexed kat 987654321 1);
  Alcotest.(check int) "draw 2^62-1 14" 4502455500712769682
    (draw_indexed kat 0x3FFF_FFFF_FFFF_FFFF 14)

let point_gen = QCheck.map (fun v -> Int64.to_int v land ((1 lsl 62) - 1)) QCheck.int64

let prop_draw_is_query =
  QCheck.Test.make ~name:"draw_indexed = query_indexed" ~count:500
    QCheck.(pair point_gen int)
    (fun (w, i) ->
      let h = oracle "draw-law" in
      Int64.of_int (Hashing.Oracle.draw_indexed h w i)
      = Hashing.Oracle.query_indexed h (Int64.of_int w) i)

(* Each domain has its own SHA-256 scratch: draws fanned out over two
   domains equal the same draws made in sequence. *)
let test_two_domains () =
  let h = oracle "domains" in
  let n = 20_000 in
  let draw r = Hashing.Oracle.draw_indexed h (r * 7919) (r land 15) in
  let parallel =
    Parallel.Pool.map_slices ~jobs:2 ~n (fun lo hi -> Array.init (hi - lo) (fun k -> draw (lo + k)))
    |> Array.concat
  in
  Alcotest.(check (array int)) "jobs 2 = sequential" (Array.init n draw) parallel

(* The int entry allocates nothing: 10 k draws leave the minor heap
   counter where it was, up to the float [Gc.minor_words] boxes. *)
let test_draw_allocation () =
  let h = oracle "alloc" in
  let run () =
    let acc = ref 0 in
    for i = 1 to 10_000 do
      acc := !acc lxor Hashing.Oracle.draw_indexed h i i
    done;
    !acc
  in
  ignore (run ());
  let w0 = Gc.minor_words () in
  let acc = run () in
  let words = Gc.minor_words () -. w0 in
  ignore (Sys.opaque_identity acc);
  Alcotest.(check bool) (Printf.sprintf "%.0f words for 10k draws <= 4" words) true (words <= 4.)

let () =
  Alcotest.run "oracle"
    [
      ( "function-family",
        [
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "label independence" `Quick test_label_independence;
          Alcotest.test_case "system-key independence" `Quick test_system_key_independence;
          Alcotest.test_case "globally reconstructible" `Quick test_same_parameters_same_function;
          Alcotest.test_case "label accessor" `Quick test_label_accessor;
        ] );
      ( "outputs",
        [
          Alcotest.test_case "range discipline" `Quick test_range;
          Alcotest.test_case "indexed draws distinct" `Quick test_indexed_distinct;
          Alcotest.test_case "indexed encoding unambiguous" `Quick test_indexed_vs_pair_encoding;
          Alcotest.test_case "pair order matters" `Quick test_pair_order_matters;
          Alcotest.test_case "unit float mapping" `Quick test_to_unit_float;
          Alcotest.test_case "uniformity (chi-square)" `Slow test_uniformity_chi_square;
          Alcotest.test_case "known answers" `Quick test_known_answers;
          Alcotest.test_case "two domains, own scratch" `Quick test_two_domains;
          Alcotest.test_case "draws allocate nothing" `Quick test_draw_allocation;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_outputs_in_range; prop_distinct_inputs_distinct_outputs; prop_draw_is_query ] );
    ]
