(* Statistics: descriptive summaries, the paper's concentration
   bounds (Theorems 1-2), histograms, and confidence intervals. *)

let feq = Alcotest.(check (float 1e-9))

let test_mean_variance () =
  let xs = [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |] in
  feq "mean" 5.0 (Stats.Descriptive.mean xs);
  (* Sample variance with n-1 denominator: 32/7. *)
  feq "std" (sqrt (32. /. 7.)) (Stats.Descriptive.summarize xs).std

let test_singleton () =
  let s = Stats.Descriptive.summarize [| 42. |] in
  feq "std of singleton" 0. s.std;
  feq "all quantiles equal" 42. s.median;
  feq "min" 42. s.min;
  feq "max" 42. s.max

let test_quantiles () =
  let xs = [| 1.; 2.; 3.; 4.; 5. |] in
  feq "median" 3. (Stats.Descriptive.quantile xs 0.5);
  feq "min" 1. (Stats.Descriptive.quantile xs 0.);
  feq "max" 5. (Stats.Descriptive.quantile xs 1.);
  feq "interpolated" 1.5 (Stats.Descriptive.quantile xs 0.125)

let test_quantile_does_not_mutate () =
  let xs = [| 3.; 1.; 2. |] in
  ignore (Stats.Descriptive.quantile xs 0.5);
  Alcotest.(check (array (float 0.))) "input untouched" [| 3.; 1.; 2. |] xs

let test_summarize_shape () =
  let xs = Array.init 1000 (fun i -> float_of_int i) in
  let s = Stats.Descriptive.summarize xs in
  Alcotest.(check int) "n" 1000 s.n;
  feq "mean" 499.5 s.mean;
  feq "median" 499.5 s.median;
  Alcotest.(check bool) "p95 ~ 949" true (Float.abs (s.p95 -. 949.05) < 0.5);
  feq "min" 0. s.min;
  feq "max" 999. s.max

let test_empty_rejected () =
  Alcotest.check_raises "empty mean" (Invalid_argument "Descriptive.mean: empty sample")
    (fun () -> ignore (Stats.Descriptive.mean [||]))

(* Theorem 1's upper tail, [Pr(X > (1 + delta) mu) <= exp (-delta^2 mu / 3)]. *)
let chernoff_upper ~mu ~delta = exp (-.(delta *. delta) *. mu /. 3.)

let test_chernoff_bounds_empirical () =
  (* The exact binomial tails sit below the Chernoff bound. *)
  let n = 100 and p = 0.3 in
  let mu = float_of_int n *. p in
  List.iter
    (fun delta ->
      let k = int_of_float (ceil ((1. +. delta) *. mu)) + 1 in
      let exact = Stats.Bounds.binomial_tail_ge ~n ~p ~k in
      let bound = chernoff_upper ~mu ~delta in
      Alcotest.(check bool)
        (Printf.sprintf "delta=%.1f: exact %.2e <= bound %.2e" delta exact bound)
        true (exact <= bound))
    [ 0.2; 0.4; 0.6 ]

let test_bad_group_probability () =
  (* The exact probability that bad members hold a majority of an
     odd-sized group: decreasing in group size, increasing in beta,
     and below the relative-entropy Chernoff form
     [exp (-g D(1/2 || beta))]. *)
  let bad g beta = Stats.Bounds.binomial_tail_ge ~n:g ~p:beta ~k:((g + 1) / 2) in
  let p7 = bad 7 0.05 and p15 = bad 15 0.05 and p7b = bad 7 0.2 in
  Alcotest.(check bool) "bigger group safer" true (p15 < p7);
  Alcotest.(check bool) "bigger beta riskier" true (p7b > p7);
  feq "beta 0 is safe" 0. (bad 9 0.);
  feq "beta 1 is lost" 1. (bad 9 1.);
  let kl a p = (a *. log (a /. p)) +. ((1. -. a) *. log ((1. -. a) /. (1. -. p))) in
  let chernoff = exp (-7. *. kl 0.5 0.05) in
  Alcotest.(check bool)
    (Printf.sprintf "Chernoff %.2e above exact %.2e" chernoff p7)
    true (chernoff >= p7)

let test_binomial_tail_edges () =
  feq "k=0 is certain" 1. (Stats.Bounds.binomial_tail_ge ~n:10 ~p:0.3 ~k:0);
  feq "k>n impossible" 0. (Stats.Bounds.binomial_tail_ge ~n:10 ~p:0.3 ~k:11);
  feq "p=0, k=0" 1. (Stats.Bounds.binomial_tail_ge ~n:10 ~p:0. ~k:0);
  feq "p=0, k=1" 0. (Stats.Bounds.binomial_tail_ge ~n:10 ~p:0. ~k:1);
  feq "p=1" 1. (Stats.Bounds.binomial_tail_ge ~n:10 ~p:1. ~k:10);
  (* Pr(Bin(3, 1/2) >= 2) = 1/2. *)
  feq "exact small case" 0.5 (Stats.Bounds.binomial_tail_ge ~n:3 ~p:0.5 ~k:2)

let test_binomial_tail_sums () =
  (* Tail at k plus strict head equals one. *)
  let n = 20 and p = 0.37 in
  for k = 0 to n do
    let tail = Stats.Bounds.binomial_tail_ge ~n ~p ~k in
    let head = 1. -. tail in
    Alcotest.(check bool) "in [0,1]" true (tail >= 0. && tail <= 1. && head >= -1e-9)
  done

let test_histogram_counts () =
  let h = Stats.Histogram.create ~bins:4 () in
  List.iter (Stats.Histogram.add h) [ 0.1; 0.3; 0.3; 0.6; 0.9; 0.99 ];
  Alcotest.(check int) "bin 0" 1 (Stats.Histogram.count h 0);
  Alcotest.(check int) "bin 1" 2 (Stats.Histogram.count h 1);
  Alcotest.(check int) "bin 2" 1 (Stats.Histogram.count h 2);
  Alcotest.(check int) "bin 3" 2 (Stats.Histogram.count h 3);
  Alcotest.(check int) "total" 6 (Stats.Histogram.total h)

let test_histogram_clamping () =
  let h = Stats.Histogram.create ~lo:0. ~hi:1. ~bins:2 () in
  Stats.Histogram.add h (-5.);
  Stats.Histogram.add h 7.;
  Alcotest.(check int) "clamped low" 1 (Stats.Histogram.count h 0);
  Alcotest.(check int) "clamped high" 1 (Stats.Histogram.count h 1)

let test_histogram_uniform_chi2 () =
  let rng = Prng.Rng.create 99 in
  let h = Stats.Histogram.create ~bins:20 () in
  for _ = 1 to 20_000 do
    Stats.Histogram.add h (Prng.Rng.float rng)
  done;
  let stat = Stats.Histogram.chi_square_uniform h in
  Alcotest.(check bool)
    (Printf.sprintf "uniform sample passes (%.1f)" stat)
    true
    (stat < Stats.Histogram.chi_square_critical_99 ~dof:19);
  (* And a blatantly non-uniform sample fails. *)
  let h2 = Stats.Histogram.create ~bins:20 () in
  for _ = 1 to 20_000 do
    Stats.Histogram.add h2 (Prng.Rng.float rng *. 0.3)
  done;
  Alcotest.(check bool) "clustered sample fails" true
    (Stats.Histogram.chi_square_uniform h2 > Stats.Histogram.chi_square_critical_99 ~dof:19)

let test_histogram_render () =
  let h = Stats.Histogram.create ~bins:3 () in
  List.iter (Stats.Histogram.add h) [ 0.1; 0.5; 0.9 ];
  let s = Stats.Histogram.render h ~width:10 in
  Alcotest.(check int) "one line per bin" 3
    (List.length (String.split_on_char '\n' (String.trim s)))

(* Log-bucketed latency histograms. *)

module L = Stats.Histogram.Log

(* The default geometry's relative resolution, 10^(1/25) - 1. *)
let resolution = (10. ** (1. /. 25.)) -. 1.

let test_log_exact_extremes () =
  let h = L.create () in
  List.iter (L.add h) [ 3.7; 120.; 0.02; 9500.; 3.7 ];
  feq "q0 is the min" 0.02 (L.quantile h 0.);
  feq "q1 is the max" 9500. (L.quantile h 1.);
  Alcotest.(check int) "total" 5 (L.total h)

let test_log_single_value_exact () =
  let h = L.create () in
  for _ = 1 to 100 do
    L.add h 42.
  done;
  List.iter (fun q -> feq (Printf.sprintf "q%.2f" q) 42. (L.quantile h q))
    [ 0.; 0.25; 0.5; 0.99; 1. ]

let test_log_relative_error_bound () =
  (* A dense sample: every estimated quantile lands within the
     geometry's advertised relative resolution of the true sample
     quantile. *)
  let h = L.create () in
  let xs = Array.init 10_000 (fun i -> 1. +. (0.37 *. float_of_int i)) in
  Array.iter (L.add h) xs;
  let tol = 2. *. resolution in
  List.iter
    (fun q ->
      let truth = Stats.Descriptive.quantile xs q in
      let est = L.quantile h q in
      Alcotest.(check bool)
        (Printf.sprintf "q%.3f: |%.1f - %.1f| within %.0f%%" q est truth (100. *. tol))
        true
        (Float.abs (est -. truth) <= (tol *. truth) +. 1e-6))
    [ 0.; 0.1; 0.5; 0.9; 0.99; 0.999; 1. ]

let test_log_merge_refuses_geometry () =
  let a = L.create () and b = L.create ~per_decade:10 () in
  L.add a 1.;
  L.add b 1.;
  Alcotest.check_raises "geometry"
    (Invalid_argument "Histogram.Log.merge: differing bucket geometry") (fun () ->
      ignore (L.merge a b))

(* Within a bucket the estimate can only interpolate, so against
   sparse adversarial samples the sharp guarantee is a sandwich: the
   estimate lies between the two order statistics bracketing the
   target rank, widened by one bucket of relative resolution. *)
let prop_log_quantile_brackets =
  QCheck.Test.make
    ~name:"Log.quantile brackets Descriptive's order statistics (within resolution)"
    ~count:300
    QCheck.(
      pair
        (list_of_size (Gen.int_range 1 80) (float_range 0.01 1e6))
        (float_range 0. 1.))
    (fun (xs, q) ->
      let h = L.create () in
      List.iter (L.add h) xs;
      let sorted = Array.of_list xs in
      Array.sort compare sorted;
      let n = Array.length sorted in
      let rank = q *. float_of_int (n - 1) in
      let lo = sorted.(int_of_float (Float.floor rank)) in
      let hi = sorted.(min (n - 1) (int_of_float (Float.ceil rank))) in
      let r = resolution in
      let est = L.quantile h q in
      est >= (lo /. (1. +. r)) -. 1e-9 && est <= (hi *. (1. +. r)) +. 1e-9)

let prop_log_merge_associative =
  QCheck.Test.make ~name:"Log.merge is associative" ~count:200
    QCheck.(
      triple
        (list_of_size (Gen.int_range 0 40) (float_range 0.01 1e6))
        (list_of_size (Gen.int_range 0 40) (float_range 0.01 1e6))
        (list_of_size (Gen.int_range 0 40) (float_range 0.01 1e6)))
    (fun (xs, ys, zs) ->
      let mk l =
        let h = L.create () in
        List.iter (L.add h) l;
        h
      in
      let a = mk xs and b = mk ys and c = mk zs in
      let left = L.merge (L.merge a b) c and right = L.merge a (L.merge b c) in
      L.total left = L.total right
      && (L.total left = 0
          || List.for_all
               (fun q -> L.quantile left q = L.quantile right q)
               [ 0.; 0.25; 0.5; 0.9; 0.99; 1. ]))

let test_wilson () =
  let i = Stats.Ci.wilson95 ~successes:50 ~trials:100 in
  Alcotest.(check bool) "contains p-hat" true (i.lo < 0.5 && i.hi > 0.5);
  Alcotest.(check bool) "roughly +-10%" true (i.hi -. i.lo < 0.25);
  (* Near-zero counts keep a positive upper bound and zero lower. *)
  let z = Stats.Ci.wilson95 ~successes:0 ~trials:1000 in
  feq "lo at 0" 0. z.lo;
  Alcotest.(check bool) "hi small but positive" true (z.hi > 0. && z.hi < 0.01)

let test_wilson_narrows () =
  let small = Stats.Ci.wilson95 ~successes:5 ~trials:10 in
  let large = Stats.Ci.wilson95 ~successes:500 ~trials:1000 in
  Alcotest.(check bool) "more trials, narrower" true
    (large.hi -. large.lo < small.hi -. small.lo)

let prop_summary_order =
  QCheck.Test.make ~name:"min <= median <= p95 <= p99 <= max" ~count:300
    QCheck.(list_of_size (Gen.int_range 1 50) (float_range (-100.) 100.))
    (fun xs ->
      let s = Stats.Descriptive.summarize (Array.of_list xs) in
      s.min <= s.median && s.median <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max)

let prop_wilson_brackets =
  QCheck.Test.make ~name:"wilson interval brackets the sample rate" ~count:300
    QCheck.(pair (int_range 0 100) (int_range 1 100))
    (fun (s, extra) ->
      let trials = s + extra in
      let i = Stats.Ci.wilson95 ~successes:s ~trials in
      let p = float_of_int s /. float_of_int trials in
      i.lo <= p +. 1e-9 && i.hi >= p -. 1e-9 && i.lo >= 0. && i.hi <= 1.)

let () =
  Alcotest.run "stats"
    [
      ( "descriptive",
        [
          Alcotest.test_case "mean and variance" `Quick test_mean_variance;
          Alcotest.test_case "singleton sample" `Quick test_singleton;
          Alcotest.test_case "quantiles" `Quick test_quantiles;
          Alcotest.test_case "quantile purity" `Quick test_quantile_does_not_mutate;
          Alcotest.test_case "summary shape" `Quick test_summarize_shape;
          Alcotest.test_case "empty rejected" `Quick test_empty_rejected;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "chernoff bounds binomial tails" `Quick test_chernoff_bounds_empirical;
          Alcotest.test_case "bad-group probability" `Quick test_bad_group_probability;
          Alcotest.test_case "binomial tail edges" `Quick test_binomial_tail_edges;
          Alcotest.test_case "binomial tail sanity" `Quick test_binomial_tail_sums;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "bin counts" `Quick test_histogram_counts;
          Alcotest.test_case "clamping" `Quick test_histogram_clamping;
          Alcotest.test_case "chi-square discriminates" `Slow test_histogram_uniform_chi2;
          Alcotest.test_case "render" `Quick test_histogram_render;
        ] );
      ( "log-histogram",
        [
          Alcotest.test_case "exact extremes" `Quick test_log_exact_extremes;
          Alcotest.test_case "single value exact" `Quick test_log_single_value_exact;
          Alcotest.test_case "dense relative-error bound" `Quick
            test_log_relative_error_bound;
          Alcotest.test_case "merge geometry check" `Quick test_log_merge_refuses_geometry;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_log_quantile_brackets; prop_log_merge_associative ] );
      ( "ci",
        [
          Alcotest.test_case "wilson" `Quick test_wilson;
          Alcotest.test_case "wilson narrows" `Quick test_wilson_narrows;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_summary_order; prop_wilson_brackets ] );
    ]
