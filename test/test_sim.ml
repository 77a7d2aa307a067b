(* The discrete-event engine, its heap, and the metrics registry. *)

let test_heap_orders () =
  let h = Sim.Heap.create () in
  List.iter
    (fun (t, s) -> Sim.Heap.push h ~time:t ~seq:s (t, s))
    [ (5, 0); (1, 1); (3, 2); (1, 0); (9, 3); (3, 1) ];
  let order = ref [] in
  let rec drain () =
    match Sim.Heap.pop h with
    | Some (t, s, _) ->
        order := (t, s) :: !order;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list (pair int int)))
    "lexicographic order"
    [ (1, 0); (1, 1); (3, 1); (3, 2); (5, 0); (9, 3) ]
    (List.rev !order)

let test_heap_peek () =
  let h = Sim.Heap.create () in
  Alcotest.(check bool) "empty peek" true (Sim.Heap.peek h = None);
  Sim.Heap.push h ~time:2 ~seq:0 "b";
  Sim.Heap.push h ~time:1 ~seq:0 "a";
  (match Sim.Heap.peek h with
  | Some (1, 0, "a") -> ()
  | _ -> Alcotest.fail "peek should see the minimum");
  Alcotest.(check int) "size unchanged by peek" 2 (Sim.Heap.size h)

let test_heap_many () =
  let h = Sim.Heap.create () in
  let rng = Prng.Rng.create 3 in
  for i = 0 to 9999 do
    Sim.Heap.push h ~time:(Prng.Rng.int rng 1000) ~seq:i ()
  done;
  let last = ref (-1) in
  let ok = ref true in
  let rec drain count =
    match Sim.Heap.pop h with
    | Some (t, _, ()) ->
        if t < !last then ok := false;
        last := t;
        drain (count + 1)
    | None -> count
  in
  Alcotest.(check int) "all popped" 10000 (drain 0);
  Alcotest.(check bool) "nondecreasing times" true !ok

let test_engine_runs_in_order () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  Sim.Engine.schedule e ~at:10 (fun () -> log := 10 :: !log);
  Sim.Engine.schedule e ~at:5 (fun () -> log := 5 :: !log);
  Sim.Engine.schedule e ~at:7 (fun () -> log := 7 :: !log);
  Sim.Engine.run e;
  Alcotest.(check (list int)) "time order" [ 5; 7; 10 ] (List.rev !log);
  Alcotest.(check int) "clock at last event" 10 (Sim.Engine.now e)

let test_engine_same_step_fifo () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  for i = 0 to 4 do
    Sim.Engine.schedule e ~at:3 (fun () -> log := i :: !log)
  done;
  Sim.Engine.run e;
  Alcotest.(check (list int)) "insertion order at equal times" [ 0; 1; 2; 3; 4 ]
    (List.rev !log)

let test_engine_cascading () =
  (* Events scheduling further events. *)
  let e = Sim.Engine.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    if !count < 5 then Sim.Engine.schedule_after e ~delay:2 tick
  in
  Sim.Engine.schedule e ~at:0 tick;
  Sim.Engine.run e;
  Alcotest.(check int) "five ticks" 5 !count;
  Alcotest.(check int) "clock advanced by 8" 8 (Sim.Engine.now e)

let test_engine_until () =
  let e = Sim.Engine.create () in
  let ran = ref [] in
  List.iter (fun t -> Sim.Engine.schedule e ~at:t (fun () -> ran := t :: !ran)) [ 1; 5; 9 ];
  Sim.Engine.run ~until:5 e;
  Alcotest.(check (list int)) "only events <= until" [ 1; 5 ] (List.rev !ran);
  Sim.Engine.run e;
  Alcotest.(check (list int)) "rest runs later" [ 1; 5; 9 ] (List.rev !ran)

let test_engine_rejects_past () =
  let e = Sim.Engine.create () in
  Sim.Engine.schedule e ~at:10 (fun () -> ());
  Sim.Engine.run e;
  Alcotest.check_raises "past event" (Invalid_argument "Engine.schedule: event in the past")
    (fun () -> Sim.Engine.schedule e ~at:5 (fun () -> ()))

let test_metrics_counters () =
  let m = Sim.Metrics.create () in
  Alcotest.(check int) "unset counter reads 0" 0 (Sim.Metrics.get m "x");
  Sim.Metrics.incr m "x";
  Sim.Metrics.add m "x" 4;
  Sim.Metrics.incr m "y";
  Alcotest.(check int) "x" 5 (Sim.Metrics.get m "x");
  Alcotest.(check int) "y" 1 (Sim.Metrics.get m "y");
  Alcotest.(check (list (pair string int))) "snapshot sorted"
    [ ("x", 5); ("y", 1) ]
    (Sim.Metrics.to_list (Sim.Metrics.snapshot m))

let test_metrics_snapshot_phases () =
  let m = Sim.Metrics.create () in
  Sim.Metrics.add m "x" 3;
  let before = Sim.Metrics.snapshot m in
  Sim.Metrics.add m "x" 4;
  Sim.Metrics.incr m "y";
  let after = Sim.Metrics.snapshot m in
  let phase = Sim.Metrics.diff after before in
  Alcotest.(check (list (pair string int))) "phase cost"
    [ ("x", 4); ("y", 1) ]
    (Sim.Metrics.to_list phase);
  Alcotest.(check int) "found" 4 (Sim.Metrics.found phase "x");
  Alcotest.(check int) "found absent" 0 (Sim.Metrics.found phase "z");
  (* Snapshots are frozen: mutating [m] further must not move them. *)
  Sim.Metrics.add m "x" 100;
  Alcotest.(check int) "frozen" 7 (Sim.Metrics.found after "x")

let test_metrics_merge () =
  let a = Sim.Metrics.create () in
  let b = Sim.Metrics.create () in
  Sim.Metrics.add a "x" 2;
  Sim.Metrics.add b "x" 5;
  Sim.Metrics.add b "y" 1;
  Sim.Metrics.merge a b;
  Alcotest.(check int) "x summed" 7 (Sim.Metrics.get a "x");
  Alcotest.(check int) "y adopted" 1 (Sim.Metrics.get a "y");
  Alcotest.(check int) "src untouched" 5 (Sim.Metrics.get b "x");
  Alcotest.(check int) "src untouched y" 1 (Sim.Metrics.get b "y")

let prop_heap_pops_sorted =
  QCheck.Test.make ~name:"heap pops every multiset sorted" ~count:200
    QCheck.(list (pair (int_range 0 100) (int_range 0 100)))
    (fun entries ->
      let h = Sim.Heap.create () in
      List.iter (fun (t, s) -> Sim.Heap.push h ~time:t ~seq:s ()) entries;
      let rec drain acc =
        match Sim.Heap.pop h with
        | Some (t, s, ()) -> drain ((t, s) :: acc)
        | None -> List.rev acc
      in
      let popped = drain [] in
      popped = List.sort compare entries && List.length popped = List.length entries)

let test_series_basics () =
  let s = Sim.Series.create () in
  Alcotest.(check int) "empty" 0 (Sim.Series.length s);
  Alcotest.(check bool) "no last" true (Sim.Series.last s = None);
  Alcotest.(check (list int)) "empty list" [] (Sim.Series.to_list s);
  List.iter (Sim.Series.push s) [ 3; 1; 4; 1; 5 ];
  Alcotest.(check int) "length" 5 (Sim.Series.length s);
  Alcotest.(check (list int)) "oldest-first" [ 3; 1; 4; 1; 5 ] (Sim.Series.to_list s);
  Alcotest.(check int) "get 0" 3 (Sim.Series.get s 0);
  Alcotest.(check int) "get 4" 5 (Sim.Series.get s 4);
  Alcotest.(check bool) "last" true (Sim.Series.last s = Some 5);
  Alcotest.(check int) "fold sums" 14 (Sim.Series.fold (fun a x -> a + x) s 0);
  Alcotest.check_raises "get out of bounds"
    (Invalid_argument "Series.get: index out of bounds") (fun () ->
      ignore (Sim.Series.get s 5))

let prop_series_is_a_list =
  QCheck.Test.make ~name:"Series.to_list = the pushed list" ~count:200
    QCheck.(list int)
    (fun xs ->
      let s = Sim.Series.create () in
      List.iter (Sim.Series.push s) xs;
      Sim.Series.to_list s = xs && Sim.Series.length s = List.length xs)

(* The regression the stress tier depends on: k appends must cost
   O(k), not the O(k^2) of the seed's [xs <- xs @ [x]] accumulators.
   10^5 pushes complete in well under a second when amortised-O(1);
   the quadratic version needs minutes at this k (10^10 cons cells),
   so a generous ceiling separates them by orders of magnitude
   without being flaky on a loaded machine. *)
let test_series_linear_time () =
  List.iter
    (fun k ->
      let t0 = Unix.gettimeofday () in
      let s = Sim.Series.create () in
      for i = 1 to k do
        Sim.Series.push s i
      done;
      let elapsed = Unix.gettimeofday () -. t0 in
      Alcotest.(check int) (Printf.sprintf "k=%d pushed" k) k (Sim.Series.length s);
      Alcotest.(check bool)
        (Printf.sprintf "k=%d in O(k) time (%.3fs)" k elapsed)
        true (elapsed < 2.))
    [ 10_000; 100_000 ]

(* [append] is list concatenation on the underlying traces, and
   concatenation is associative — the property the parallel epoch
   transition leans on when it folds slice-local confused/suspect
   series back in rank order: any regrouping of the slices yields the
   same trace. *)
let prop_series_append_assoc =
  QCheck.Test.make ~name:"Series.append is associative concatenation" ~count:200
    QCheck.(triple (list int) (list int) (list int))
    (fun (xs, ys, zs) ->
      let series l =
        let s = Sim.Series.create () in
        List.iter (Sim.Series.push s) l;
        s
      in
      (* (xs @ ys) @ zs via append *)
      let left = series xs in
      Sim.Series.append left (series ys);
      Sim.Series.append left (series zs);
      (* xs @ (ys @ zs) via append *)
      let rhs = series ys in
      Sim.Series.append rhs (series zs);
      let right = series xs in
      Sim.Series.append right rhs;
      (* and the source must be left untouched *)
      let src = series ys in
      let dst = series xs in
      Sim.Series.append dst src;
      Sim.Series.to_list left = xs @ ys @ zs
      && Sim.Series.to_list right = xs @ ys @ zs
      && Sim.Series.to_list src = ys)

(* [Conditions.transmit]: every attempt is charged, the injector
   rules on it, and a drop is retried within the tracker's budget. *)
let transmit_charges conds =
  let charges = ref 0 in
  let ok =
    Sim.Conditions.transmit conds ~now:0 ~src:(Idspace.Point.of_int 1)
      ~dst:(Idspace.Point.of_int 2) ~charge:(fun () -> incr charges)
  in
  (ok, !charges)

let test_transmit_benign () =
  let ok, charges = transmit_charges Sim.Conditions.inert in
  Alcotest.(check bool) "delivered" true ok;
  Alcotest.(check int) "one charge" 1 charges

let test_transmit_drop_exhausts_budget () =
  List.iter
    (fun budget ->
      let metrics = Sim.Metrics.create () in
      let conds =
        Sim.Conditions.activate ~metrics
          (Sim.Conditions.make
             ~faults:(Faults.Plan.uniform ~drop:1.0 ())
             ~reliability:(Reliability.Policy.make ~max_retries:budget ())
             ())
      in
      let ok, charges = transmit_charges conds in
      let ctx what = Printf.sprintf "%s (budget %d)" what budget in
      Alcotest.(check bool) (ctx "lost") false ok;
      Alcotest.(check int) (ctx "1 + budget charges") (1 + budget) charges;
      Alcotest.(check int) (ctx "retries") budget
        (Sim.Metrics.get metrics Sim.Metrics.retry_attempted);
      Alcotest.(check int) (ctx "exhausted") (if budget = 0 then 0 else 1)
        (Sim.Metrics.get metrics Sim.Metrics.retry_exhausted))
    [ 0; 1; 3 ]

let () =
  Alcotest.run "sim"
    [
      ( "heap",
        [
          Alcotest.test_case "orders lexicographically" `Quick test_heap_orders;
          Alcotest.test_case "peek" `Quick test_heap_peek;
          Alcotest.test_case "10k random entries" `Quick test_heap_many;
        ] );
      ( "engine",
        [
          Alcotest.test_case "time order" `Quick test_engine_runs_in_order;
          Alcotest.test_case "FIFO at equal times" `Quick test_engine_same_step_fifo;
          Alcotest.test_case "cascading events" `Quick test_engine_cascading;
          Alcotest.test_case "run ~until" `Quick test_engine_until;
          Alcotest.test_case "rejects past events" `Quick test_engine_rejects_past;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters" `Quick test_metrics_counters;
          Alcotest.test_case "snapshot/diff phases" `Quick test_metrics_snapshot_phases;
          Alcotest.test_case "merge" `Quick test_metrics_merge;
        ] );
      ( "conditions",
        [
          Alcotest.test_case "transmit: benign is one charge" `Quick
            test_transmit_benign;
          Alcotest.test_case "transmit: drop 1.0 spends the budget" `Quick
            test_transmit_drop_exhausts_budget;
        ] );
      ( "series",
        [
          Alcotest.test_case "push/get/to_list" `Quick test_series_basics;
          Alcotest.test_case "O(k) for k = 10^4, 10^5" `Quick test_series_linear_time;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_heap_pops_sorted;
          QCheck_alcotest.to_alcotest prop_series_is_a_list;
          QCheck_alcotest.to_alcotest prop_series_append_assoc;
        ] );
    ]
