(* Tests for the PRNG substrate: determinism, splitting independence,
   distributional sanity, and the sampling helpers. *)

let rng seed = Prng.Rng.create seed

let test_determinism () =
  let a = rng 42 and b = rng 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.Rng.bits64 a) (Prng.Rng.bits64 b)
  done

let test_seed_sensitivity () =
  let a = rng 1 and b = rng 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Int64.equal (Prng.Rng.bits64 a) (Prng.Rng.bits64 b) then incr same
  done;
  Alcotest.(check int) "different seeds diverge" 0 !same

let test_copy_independence () =
  let a = rng 7 in
  let b = Prng.Rng.copy a in
  let va = Prng.Rng.bits64 a in
  let vb = Prng.Rng.bits64 b in
  Alcotest.(check int64) "copy replays" va vb;
  (* Advancing the copy further should not disturb the original. *)
  ignore (Prng.Rng.bits64 b);
  ignore (Prng.Rng.bits64 b);
  let a' = Prng.Rng.copy a in
  Alcotest.(check int64) "original unaffected" (Prng.Rng.bits64 a) (Prng.Rng.bits64 a')

let test_split_independence () =
  let a = rng 9 in
  let sub = Prng.Rng.split a in
  (* The substream and the parent should not be identical streams. *)
  let matches = ref 0 in
  for _ = 1 to 64 do
    if Int64.equal (Prng.Rng.bits64 a) (Prng.Rng.bits64 sub) then incr matches
  done;
  Alcotest.(check bool) "substreams differ" true (!matches < 4)

let test_split_determinism () =
  let mk () =
    let a = rng 5 in
    let s1 = Prng.Rng.split a in
    let s2 = Prng.Rng.split a in
    (Prng.Rng.bits64 s1, Prng.Rng.bits64 s2)
  in
  let x = mk () and y = mk () in
  Alcotest.(check bool) "splits replay" true (x = y)

let test_int_bounds () =
  let a = rng 3 in
  for _ = 1 to 10_000 do
    let v = Prng.Rng.int a 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_int_powers_of_two () =
  let a = rng 4 in
  for _ = 1 to 1000 do
    let v = Prng.Rng.int a 16 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 16)
  done

let test_int_rejects_nonpositive () =
  let a = rng 1 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Prng.Rng.int a 0))

let test_int_in () =
  let a = rng 8 in
  for _ = 1 to 1000 do
    let v = Prng.Rng.int_in a (-5) 5 in
    Alcotest.(check bool) "in closed range" true (v >= -5 && v <= 5)
  done

let test_int_uniformity () =
  let a = rng 11 in
  let counts = Array.make 10 0 in
  let draws = 100_000 in
  for _ = 1 to draws do
    let v = Prng.Rng.int a 10 in
    counts.(v) <- counts.(v) + 1
  done;
  let expected = draws / 10 in
  Array.iter
    (fun c ->
      Alcotest.(check bool)
        (Printf.sprintf "bin count %d near %d" c expected)
        true
        (abs (c - expected) < expected / 10))
    counts

let test_float_range () =
  let a = rng 12 in
  for _ = 1 to 10_000 do
    let v = Prng.Rng.float a in
    Alcotest.(check bool) "in [0,1)" true (v >= 0. && v < 1.)
  done

let test_float_mean () =
  let a = rng 13 in
  let sum = ref 0. in
  let draws = 100_000 in
  for _ = 1 to draws do
    sum := !sum +. Prng.Rng.float a
  done;
  let mean = !sum /. float_of_int draws in
  Alcotest.(check bool) "mean near 0.5" true (Float.abs (mean -. 0.5) < 0.01)

let test_bernoulli () =
  let a = rng 14 in
  let hits = ref 0 in
  let draws = 100_000 in
  for _ = 1 to draws do
    if Prng.Rng.bernoulli a 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int draws in
  Alcotest.(check bool) "rate near 0.3" true (Float.abs (rate -. 0.3) < 0.01)

(* Regression: the p<=0 and p>=1 edges used to burn a draw on a
   foregone conclusion, so a zero-rate consumer (e.g. a fault rule
   with duplicate=0) perturbed the stream just by existing. The edges
   must short-circuit without touching the state. *)
let test_bernoulli_edges_consume_nothing () =
  let a = rng 14 and b = rng 14 in
  Alcotest.(check bool) "p=0 is false" false (Prng.Rng.bernoulli a 0.);
  Alcotest.(check bool) "p<0 is false" false (Prng.Rng.bernoulli a (-1.));
  Alcotest.(check bool) "p=1 is true" true (Prng.Rng.bernoulli a 1.);
  Alcotest.(check bool) "p>1 is true" true (Prng.Rng.bernoulli a 1.5);
  (* [a] drew four edge verdicts, [b] drew nothing: same position. *)
  Alcotest.(check bool) "no draws consumed" true
    (List.init 8 (fun _ -> Prng.Rng.float a) = List.init 8 (fun _ -> Prng.Rng.float b))

let test_exponential_mean () =
  let a = rng 17 in
  let sum = ref 0. in
  let draws = 50_000 in
  for _ = 1 to draws do
    sum := !sum +. Prng.Rng.exponential a 2.0
  done;
  let mean = !sum /. float_of_int draws in
  Alcotest.(check bool) "mean near 1/2" true (Float.abs (mean -. 0.5) < 0.02)

let test_shuffle_permutes () =
  let a = rng 18 in
  let arr = Array.init 100 (fun i -> i) in
  Prng.Rng.shuffle a arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 100 (fun i -> i)) sorted

let test_shuffle_uniform_first () =
  (* Position of element 0 after shuffling should be uniform. *)
  let a = rng 19 in
  let counts = Array.make 5 0 in
  for _ = 1 to 50_000 do
    let arr = [| 0; 1; 2; 3; 4 |] in
    Prng.Rng.shuffle a arr;
    Array.iteri (fun pos v -> if v = 0 then counts.(pos) <- counts.(pos) + 1) arr
  done;
  Array.iter
    (fun c -> Alcotest.(check bool) "near uniform" true (abs (c - 10_000) < 1000))
    counts

let test_sample_without_replacement () =
  let a = rng 20 in
  for _ = 1 to 100 do
    let s = Prng.Rng.sample_without_replacement a 10 50 in
    Alcotest.(check int) "size" 10 (Array.length s);
    let sorted = Array.copy s in
    Array.sort compare sorted;
    for i = 1 to 9 do
      Alcotest.(check bool) "distinct" true (sorted.(i) <> sorted.(i - 1))
    done;
    Array.iter (fun v -> Alcotest.(check bool) "in range" true (v >= 0 && v < 50)) s
  done

let test_sample_dense_case () =
  let a = rng 21 in
  let s = Prng.Rng.sample_without_replacement a 50 50 in
  let sorted = Array.copy s in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "all of them" (Array.init 50 (fun i -> i)) sorted

let test_splitmix_reference () =
  (* Reference values for SplitMix64 with seed 0 (from the
     public-domain reference implementation). *)
  let sm = Prng.Splitmix.create 0L in
  let v1 = Prng.Splitmix.next sm in
  let v2 = Prng.Splitmix.next sm in
  let v3 = Prng.Splitmix.next sm in
  Alcotest.(check int64) "first" 0xE220A8397B1DCDAFL v1;
  Alcotest.(check int64) "second" 0x6E789E6AA1B965F4L v2;
  Alcotest.(check int64) "third" 0x06C45D188009454FL v3

(* Property-based tests. *)

let prop_int_in_range =
  QCheck.Test.make ~name:"Rng.int always lands in [0, bound)" ~count:1000
    QCheck.(pair small_int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let a = rng seed in
      let v = Prng.Rng.int a bound in
      v >= 0 && v < bound)

let prop_sample_distinct =
  QCheck.Test.make ~name:"sample_without_replacement yields distinct values" ~count:200
    QCheck.(triple small_int (int_range 0 30) (int_range 30 100))
    (fun (seed, k, n) ->
      let a = rng seed in
      let s = Prng.Rng.sample_without_replacement a k n in
      let sorted = Array.copy s in
      Array.sort compare sorted;
      let distinct = ref true in
      for i = 1 to Array.length sorted - 1 do
        if sorted.(i) = sorted.(i - 1) then distinct := false
      done;
      !distinct && Array.length s = k)

let prop_shuffle_preserves_multiset =
  QCheck.Test.make ~name:"shuffle preserves the multiset" ~count:200
    QCheck.(pair small_int (list small_int))
    (fun (seed, xs) ->
      let a = rng seed in
      let arr = Array.of_list xs in
      let before = List.sort compare xs in
      Prng.Rng.shuffle a arr;
      let after = List.sort compare (Array.to_list arr) in
      before = after)

let () =
  Alcotest.run "prng"
    [
      ( "determinism",
        [
          Alcotest.test_case "same seed, same stream" `Quick test_determinism;
          Alcotest.test_case "different seeds diverge" `Quick test_seed_sensitivity;
          Alcotest.test_case "copy is independent" `Quick test_copy_independence;
          Alcotest.test_case "split replays deterministically" `Quick test_split_determinism;
          Alcotest.test_case "split streams are independent" `Quick test_split_independence;
          Alcotest.test_case "splitmix reference vectors" `Quick test_splitmix_reference;
        ] );
      ( "sampling",
        [
          Alcotest.test_case "int bounds" `Quick test_int_bounds;
          Alcotest.test_case "int power-of-two bounds" `Quick test_int_powers_of_two;
          Alcotest.test_case "int rejects bound 0" `Quick test_int_rejects_nonpositive;
          Alcotest.test_case "int_in closed range" `Quick test_int_in;
          Alcotest.test_case "int near-uniform" `Slow test_int_uniformity;
          Alcotest.test_case "float in [0,1)" `Quick test_float_range;
          Alcotest.test_case "float mean" `Slow test_float_mean;
          Alcotest.test_case "bernoulli rate" `Slow test_bernoulli;
          Alcotest.test_case "bernoulli edges consume nothing" `Quick
            test_bernoulli_edges_consume_nothing;
          Alcotest.test_case "exponential mean" `Slow test_exponential_mean;
        ] );
      ( "shuffles",
        [
          Alcotest.test_case "shuffle permutes" `Quick test_shuffle_permutes;
          Alcotest.test_case "shuffle uniform placement" `Slow test_shuffle_uniform_first;
          Alcotest.test_case "sample without replacement" `Quick test_sample_without_replacement;
          Alcotest.test_case "sample dense case" `Quick test_sample_dense_case;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_int_in_range; prop_sample_distinct; prop_shuffle_preserves_multiset ] );
    ]
