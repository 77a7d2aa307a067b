(* The global random-string machinery: the bins-and-counters filter
   and the three-phase propagation protocol (Lemma 12). *)

let rng = Prng.Rng.create 314

open Randstring

let mk_bins () = Bins.create ~n:1024 ~t_steps:4096 ~b:1. ~c0:2.

let test_bins_dimensions () =
  let b = mk_bins () in
  (* b * ln(n*T) = ln(2^22) ~ 15.2 -> 16 bins; cap = 2 ln 1024 ~ 14. *)
  Alcotest.(check int) "bin count" 16 (Bins.bin_count b);
  Alcotest.(check int) "cap" 14 (Bins.cap b)

let test_bin_of_output () =
  let b = mk_bins () in
  Alcotest.(check int) "[1/2,1) is bin 0" 0 (Bins.bin_of_output b 0.75);
  Alcotest.(check int) "[1/4,1/2) is bin 1" 1 (Bins.bin_of_output b 0.3);
  Alcotest.(check int) "tiny outputs clamp to deepest bin" (Bins.bin_count b - 1)
    (Bins.bin_of_output b 1e-18)

let test_offer_record_breaking () =
  let b = mk_bins () in
  let i1 = { Bins.output = 0.3; tag = 1; from_adversary = false } in
  let i2 = { Bins.output = 0.28; tag = 2; from_adversary = false } in
  let i3 = { Bins.output = 0.29; tag = 3; from_adversary = false } in
  Alcotest.(check bool) "first accepted" true (Bins.offer b i1);
  Alcotest.(check bool) "smaller accepted" true (Bins.offer b i2);
  Alcotest.(check bool) "non-record ignored" false (Bins.offer b i3);
  Alcotest.(check bool) "re-offer ignored" false (Bins.offer b i2);
  Alcotest.(check int) "stored two" 2 (List.length (Bins.solution_set b ~size:10))

let test_offer_cap () =
  let b = Bins.create ~n:8 ~t_steps:8 ~b:1. ~c0:0.1 in
  (* cap = ceil(0.1 * ln 8) = 1: one record per bin, then retired. *)
  Alcotest.(check int) "cap 1" 1 (Bins.cap b);
  let a1 = Bins.offer b { Bins.output = 0.4; tag = 1; from_adversary = false } in
  let a2 = Bins.offer b { Bins.output = 0.3; tag = 2; from_adversary = false } in
  Alcotest.(check bool) "first in" true a1;
  Alcotest.(check bool) "bin retired" false a2

let test_min_and_solution_set () =
  let b = mk_bins () in
  List.iter
    (fun (o, t) -> ignore (Bins.offer b { Bins.output = o; tag = t; from_adversary = false }))
    [ (0.6, 1); (0.2, 2); (0.05, 3); (0.01, 4); (0.001, 5) ];
  (match Bins.min_item b with
  | Some it -> Alcotest.(check int) "min is tag 5" 5 it.Bins.tag
  | None -> Alcotest.fail "expected a min");
  let sol = Bins.solution_set b ~size:3 in
  Alcotest.(check (list int)) "three smallest, ascending" [ 5; 4; 3 ]
    (List.map (fun it -> it.Bins.tag) sol)

let test_solution_set_smaller_than_size () =
  let b = mk_bins () in
  ignore (Bins.offer b { Bins.output = 0.5; tag = 9; from_adversary = false });
  Alcotest.(check int) "only what exists" 1 (List.length (Bins.solution_set b ~size:10))

(* Propagation over a real group graph. *)

let make_graph n =
  let r = Prng.Rng.create (n + 5) in
  let e = Tinygroups.Epoch.init r (Tinygroups.Epoch.default_config ~n) in
  Tinygroups.Epoch.primary e

let test_propagation_agreement_with_delay () =
  let g = make_graph 512 in
  let r =
    Propagate.run (Prng.Rng.split rng) g ~epoch_steps:2048 Propagate.default_config
  in
  Alcotest.(check bool) "most nodes participate" true (r.participants > 400);
  Alcotest.(check bool)
    (Printf.sprintf "agreement (%d violations)" r.agreement_violations)
    true r.agreement

let test_propagation_agreement_without_delay () =
  let g = make_graph 512 in
  let cfg = { Propagate.default_config with delay_release = false } in
  let r = Propagate.run (Prng.Rng.split rng) g ~epoch_steps:2048 cfg in
  Alcotest.(check bool) "agreement without adversarial timing" true r.agreement

let test_solution_sets_logarithmic () =
  let g = make_graph 512 in
  let r =
    Propagate.run (Prng.Rng.split rng) g ~epoch_steps:2048 Propagate.default_config
  in
  (* |R| <= d0 ln n = 2 ln 512 ~ 12.5. *)
  Alcotest.(check bool)
    (Printf.sprintf "max |R| = %.0f <= d0 ln n" r.solution_set_sizes.max)
    true
    (r.solution_set_sizes.max <= ceil (2. *. log 512.))

let test_min_output_scale () =
  let g = make_graph 512 in
  let r =
    Propagate.run (Prng.Rng.split rng) g ~epoch_steps:2048 Propagate.default_config
  in
  (* Smallest output ~ Theta(1/(n T)) with the adversary's budget
     included; allow two orders of magnitude of slack. *)
  let scale = 1. /. (512. *. 2048.) in
  Alcotest.(check bool)
    (Printf.sprintf "min output %.2e ~ %.2e" r.min_output scale)
    true
    (r.min_output < scale *. 100. && r.min_output > scale /. 1000.)

let test_message_cost_near_linear () =
  (* Lemma 12 (iii): per-participant forwards are polylog, so total
     forwards grow ~ linearly in n (up to log factors). *)
  let run n =
    let g = make_graph n in
    let r =
      Propagate.run (Prng.Rng.split rng) g ~epoch_steps:2048 Propagate.default_config
    in
    float_of_int r.forwards /. float_of_int (max 1 r.participants)
  in
  let f512 = run 512 and f1024 = run 1024 in
  Alcotest.(check bool)
    (Printf.sprintf "per-node forwards flat-ish: %.0f vs %.0f" f512 f1024)
    true
    (f1024 < f512 *. 3.)

let test_determinism () =
  let g = make_graph 256 in
  let r1 = Propagate.run (Prng.Rng.create 5) g ~epoch_steps:1024 Propagate.default_config in
  let r2 = Propagate.run (Prng.Rng.create 5) g ~epoch_steps:1024 Propagate.default_config in
  Alcotest.(check int) "same forwards" r1.forwards r2.forwards;
  Alcotest.(check int) "same messages" r1.messages r2.messages;
  Alcotest.(check bool) "same agreement" r1.agreement r2.agreement

let prop_bins_min_is_smallest_accepted =
  QCheck.Test.make ~name:"bins min_item is the smallest accepted" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 30) (float_range 0.000001 0.999))
    (fun outputs ->
      let b = mk_bins () in
      let accepted = ref [] in
      List.iteri
        (fun i o ->
          let it = { Bins.output = o; tag = i; from_adversary = false } in
          if Bins.offer b it then accepted := o :: !accepted)
        outputs;
      match Bins.min_item b with
      | None -> !accepted = []
      | Some it ->
          List.for_all (fun o -> o >= it.Bins.output) !accepted
          (* And the global minimum offered is always accepted. *)
          && it.Bins.output <= List.fold_left Float.min 1.0 outputs)

let prop_solution_sets_sorted =
  QCheck.Test.make ~name:"solution sets are ascending" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 40) (float_range 0.000001 0.999))
    (fun outputs ->
      let b = mk_bins () in
      List.iteri
        (fun i o -> ignore (Bins.offer b { Bins.output = o; tag = i; from_adversary = false }))
        outputs;
      let sol = Bins.solution_set b ~size:10 in
      let rec ascending = function
        | a :: (b :: _ as rest) -> a.Bins.output <= b.Bins.output && ascending rest
        | _ -> true
      in
      ascending sol)

let () =
  Alcotest.run "randstring"
    [
      ( "bins",
        [
          Alcotest.test_case "dimensions" `Quick test_bins_dimensions;
          Alcotest.test_case "bin_of_output" `Quick test_bin_of_output;
          Alcotest.test_case "record-breaking rule" `Quick test_offer_record_breaking;
          Alcotest.test_case "counter cap retires bins" `Quick test_offer_cap;
          Alcotest.test_case "min and solution set" `Quick test_min_and_solution_set;
          Alcotest.test_case "short solution set" `Quick test_solution_set_smaller_than_size;
        ] );
      ( "propagation",
        [
          Alcotest.test_case "agreement despite delayed release" `Slow
            test_propagation_agreement_with_delay;
          Alcotest.test_case "agreement without delay" `Slow
            test_propagation_agreement_without_delay;
          Alcotest.test_case "|R| = O(ln n)" `Slow test_solution_sets_logarithmic;
          Alcotest.test_case "min output ~ 1/(nT)" `Slow test_min_output_scale;
          Alcotest.test_case "near-linear message cost" `Slow test_message_cost_near_linear;
          Alcotest.test_case "deterministic replay" `Slow test_determinism;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_bins_min_is_smallest_accepted; prop_solution_sets_sorted ] );
    ]
