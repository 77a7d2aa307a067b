(* Workloads: the resource universe with Zipf popularity. *)

open Idspace

let rng = Prng.Rng.create 888

let universe = Workload.Resources.synthetic ~system_key:"wl-test" ~count:100 ~prefix:"file-"

let test_universe_basics () =
  Alcotest.(check int) "count" 100 (Workload.Resources.count universe);
  Alcotest.(check string) "names" "file-7" (Workload.Resources.name universe 7);
  (* Keys are stable and recomputable from the name. *)
  Alcotest.(check bool) "key by name agrees" true
    (Point.equal
       (Workload.Resources.key universe 7)
       (Workload.Resources.lookup_key universe "file-7"))

let test_keys_spread () =
  (* Hash-derived keys spread over the ring. *)
  let h = Stats.Histogram.create ~bins:4 () in
  for i = 0 to 99 do
    Stats.Histogram.add h (Point.to_float (Workload.Resources.key universe i))
  done;
  for b = 0 to 3 do
    Alcotest.(check bool) "every quadrant populated" true (Stats.Histogram.count h b > 5)
  done

let test_keys_distinct () =
  let keys = Array.init 100 (Workload.Resources.key universe) in
  let sorted = Array.copy keys in
  Array.sort Point.compare sorted;
  for i = 1 to 99 do
    Alcotest.(check bool) "distinct" false (Point.equal sorted.(i) sorted.(i - 1))
  done

let test_uniform_sampler () =
  let sample = Workload.Resources.sampler rng universe Workload.Resources.Uniform_pop in
  let counts = Array.make 100 0 in
  for _ = 1 to 20_000 do
    let i = sample () in
    counts.(i) <- counts.(i) + 1
  done;
  Array.iter
    (fun c -> Alcotest.(check bool) "roughly uniform" true (abs (c - 200) < 100))
    counts

let test_zipf_sampler_skew () =
  let sample = Workload.Resources.sampler rng universe (Workload.Resources.Zipf 1.0) in
  let counts = Array.make 100 0 in
  for _ = 1 to 20_000 do
    let i = sample () in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check bool)
    (Printf.sprintf "head %d dominates tail %d" counts.(0) counts.(99))
    true
    (counts.(0) > 10 * max 1 counts.(99));
  (* Zipf 1.0 head frequency ~ 1/H_100 ~ 0.193. *)
  let head = float_of_int counts.(0) /. 20_000. in
  Alcotest.(check bool) (Printf.sprintf "head rate %.3f ~ 0.19" head) true
    (head > 0.12 && head < 0.28)

let test_zipf_indices_in_range () =
  let sample = Workload.Resources.sampler rng universe (Workload.Resources.Zipf 1.5) in
  for _ = 1 to 2000 do
    let i = sample () in
    Alcotest.(check bool) "in range" true (i >= 0 && i < 100)
  done

let prop_sampler_in_range =
  QCheck.Test.make ~name:"zipf sampler stays in range for any exponent" ~count:100
    QCheck.(pair small_int (float_range 0.1 3.0))
    (fun (seed, s) ->
      let r = Prng.Rng.create seed in
      let sample = Workload.Resources.sampler r universe (Workload.Resources.Zipf s) in
      let ok = ref true in
      for _ = 1 to 100 do
        let i = sample () in
        if i < 0 || i >= 100 then ok := false
      done;
      !ok)

let () =
  Alcotest.run "workload"
    [
      ( "resources",
        [
          Alcotest.test_case "universe basics" `Quick test_universe_basics;
          Alcotest.test_case "keys spread" `Quick test_keys_spread;
          Alcotest.test_case "keys distinct" `Quick test_keys_distinct;
        ] );
      ( "popularity",
        [
          Alcotest.test_case "uniform sampler" `Slow test_uniform_sampler;
          Alcotest.test_case "zipf skew" `Slow test_zipf_sampler_skew;
          Alcotest.test_case "zipf range" `Quick test_zipf_indices_in_range;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_sampler_in_range ]);
    ]
