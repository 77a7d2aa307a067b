(* The replicated key-value store. *)

let rng = Prng.Rng.create 1212

let build ?(n = 512) ?(beta = 0.05) () =
  let _, g = Experiments.Common.build_tiny (Prng.Rng.split rng) ~n ~beta () in
  g

let any_good_client g =
  (Adversary.Population.good_ids (Tinygroups.Group_graph.population g)).(0)

let test_put_get_roundtrip () =
  let g = build ~beta:0.0 () in
  let store = Kvstore.Store.create ~system_key:"kv-test" g in
  let client = Kvstore.Store.connect store ~id:(any_good_client g) in
  (match Kvstore.Store.put client ~name:"alice" ~value:"wonderland" with
  | Kvstore.Store.Stored { version; replicas; messages } ->
      Alcotest.(check bool) "write costs messages" true (messages > 0);
      Alcotest.(check int) "first version" 1 version;
      Alcotest.(check bool) "replicated" true (replicas >= 3)
  | Kvstore.Store.Write_blocked _ -> Alcotest.fail "no adversary, no blocking");
  match Kvstore.Store.get client ~name:"alice" with
  | Kvstore.Store.Found { value; version; _ } ->
      Alcotest.(check string) "roundtrip" "wonderland" value;
      Alcotest.(check int) "version" 1 version
  | _ -> Alcotest.fail "expected the record back"

let test_get_missing () =
  let g = build ~beta:0.0 () in
  let store = Kvstore.Store.create ~system_key:"kv-test" g in
  match Kvstore.Store.get (Kvstore.Store.connect store ~id:(any_good_client g)) ~name:"nobody" with
  | Kvstore.Store.Not_found _ -> ()
  | _ -> Alcotest.fail "expected Not_found"

let test_overwrite () =
  let g = build ~beta:0.0 () in
  let store = Kvstore.Store.create ~system_key:"kv-test" g in
  let client = Kvstore.Store.connect store ~id:(any_good_client g) in
  ignore (Kvstore.Store.put client ~name:"k" ~value:"v1");
  ignore (Kvstore.Store.put client ~name:"k" ~value:"v2");
  Alcotest.(check int) "one record" 1 (Kvstore.Store.record_count store);
  match Kvstore.Store.get client ~name:"k" with
  | Kvstore.Store.Found { value; version; _ } ->
      Alcotest.(check string) "latest wins" "v2" value;
      Alcotest.(check int) "version bumped" 2 version
  | _ -> Alcotest.fail "expected the record"

let test_keys_deterministic () =
  let g = build () in
  let s1 = Kvstore.Store.create ~system_key:"kv-test" g in
  let s2 = Kvstore.Store.create ~system_key:"kv-test" g in
  Alcotest.(check bool) "same key function" true
    (Idspace.Point.equal (Kvstore.Store.key_of s1 "x") (Kvstore.Store.key_of s2 "x"));
  let s3 = Kvstore.Store.create ~system_key:"other-deployment" g in
  Alcotest.(check bool) "deployment separation" false
    (Idspace.Point.equal (Kvstore.Store.key_of s1 "x") (Kvstore.Store.key_of s3 "x"))

let test_home_is_successor () =
  let g = build () in
  let store = Kvstore.Store.create ~system_key:"kv-test" g in
  let name = "somefile" in
  let expected =
    Idspace.Ring.successor_exn
      (Adversary.Population.ring (Tinygroups.Group_graph.population g))
      (Kvstore.Store.key_of store name)
  in
  Alcotest.(check bool) "home = suc(key)" true
    (Idspace.Point.equal expected (Kvstore.Store.home store name))

let test_coverage_under_attack () =
  let g = build ~n:1024 ~beta:0.08 () in
  let store = Kvstore.Store.create ~system_key:"kv-test" g in
  let client = Kvstore.Store.connect store ~id:(any_good_client g) in
  for i = 0 to 199 do
    ignore
      (Kvstore.Store.put client ~name:(Printf.sprintf "doc-%d" i)
         ~value:(Printf.sprintf "body-%d" i))
  done;
  let c = Kvstore.Store.coverage (Prng.Rng.split rng) store ~samples:300 in
  Alcotest.(check bool) (Printf.sprintf "coverage %.3f high" c) true (c > 0.95)

let test_rehome_preserves_records () =
  let r = Prng.Rng.create 88 in
  let e = Tinygroups.Epoch.init r (Tinygroups.Epoch.default_config ~n:512) in
  let store = Kvstore.Store.create ~system_key:"kv-test" (Tinygroups.Epoch.primary e) in
  let client = Kvstore.Store.connect store ~id:(any_good_client (Tinygroups.Epoch.primary e)) in
  for i = 0 to 49 do
    ignore
      (Kvstore.Store.put client ~name:(Printf.sprintf "n%d" i) ~value:"data")
  done;
  Tinygroups.Epoch.advance e;
  let migrated = Kvstore.Store.rehome store (Tinygroups.Epoch.primary e) in
  Alcotest.(check int) "all records migrated" 50 (Kvstore.Store.record_count migrated);
  let c = Kvstore.Store.coverage (Prng.Rng.split r) migrated ~samples:200 in
  Alcotest.(check bool) (Printf.sprintf "post-migration coverage %.2f" c) true (c > 0.9)

let test_coverage_empty_rejected () =
  let g = build () in
  let store = Kvstore.Store.create ~system_key:"kv-test" g in
  Alcotest.check_raises "empty" (Invalid_argument "Store.coverage: empty store") (fun () ->
      ignore (Kvstore.Store.coverage rng store ~samples:10))

let test_delete_tombstones () =
  let g = build ~beta:0.0 () in
  let store = Kvstore.Store.create ~system_key:"kv-test" g in
  let client = Kvstore.Store.connect store ~id:(any_good_client g) in
  ignore (Kvstore.Store.put client ~name:"gone" ~value:"soon");
  Alcotest.(check int) "one live record" 1 (Kvstore.Store.record_count store);
  (match Kvstore.Store.delete client ~name:"gone" with
  | Kvstore.Store.Stored { version; _ } -> Alcotest.(check int) "tombstone versioned" 2 version
  | Kvstore.Store.Write_blocked _ -> Alcotest.fail "no blocking at beta 0");
  Alcotest.(check int) "no live records" 0 (Kvstore.Store.record_count store);
  (match Kvstore.Store.get client ~name:"gone" with
  | Kvstore.Store.Not_found _ -> ()
  | _ -> Alcotest.fail "deleted record must read Not_found");
  (* Re-creating after deletion works and keeps bumping versions. *)
  (match Kvstore.Store.put client ~name:"gone" ~value:"back" with
  | Kvstore.Store.Stored { version; _ } -> Alcotest.(check int) "recreated" 3 version
  | Kvstore.Store.Write_blocked _ -> Alcotest.fail "no blocking");
  match Kvstore.Store.get client ~name:"gone" with
  | Kvstore.Store.Found { value; _ } -> Alcotest.(check string) "back" "back" value
  | _ -> Alcotest.fail "expected the recreated record"

let test_degrade_triggers_read_repair () =
  let g = build ~beta:0.0 () in
  let store = Kvstore.Store.create ~system_key:"kv-test" g in
  let client = Kvstore.Store.connect store ~id:(any_good_client g) in
  ignore (Kvstore.Store.put client ~name:"frail" ~value:"data");
  (* Lose some replicas but keep a majority: the read succeeds and
     repairs the losses. *)
  Kvstore.Store.degrade (Prng.Rng.split rng) store ~loss_rate:0.3;
  (match Kvstore.Store.get client ~name:"frail" with
  | Kvstore.Store.Found { repaired; _ } | Kvstore.Store.Recovered { repaired; _ } ->
      ignore repaired
  | _ -> Alcotest.fail "majority survives 30% loss w.h.p.");
  (* After the repairing read, a second read repairs nothing. *)
  match Kvstore.Store.get client ~name:"frail" with
  | Kvstore.Store.Found { repaired; _ } -> Alcotest.(check int) "fully healed" 0 repaired
  | _ -> Alcotest.fail "expected Found after repair"

let test_heavy_loss_recovers_from_survivors () =
  let g = build ~beta:0.0 () in
  let store = Kvstore.Store.create ~system_key:"kv-test" g in
  let client = Kvstore.Store.connect store ~id:(any_good_client g) in
  let recovered = ref 0 and found = ref 0 and lost = ref 0 in
  for i = 0 to 39 do
    let name = Printf.sprintf "r%d" i in
    ignore (Kvstore.Store.put client ~name ~value:"v");
    Kvstore.Store.degrade (Prng.Rng.split rng) store ~loss_rate:0.7;
    match Kvstore.Store.get client ~name with
    | Kvstore.Store.Recovered _ -> incr recovered
    | Kvstore.Store.Found _ -> incr found
    | _ -> incr lost
  done;
  (* At 70% loss the majority usually breaks but a survivor almost
     always exists, so group-internal recovery dominates. *)
  Alcotest.(check bool)
    (Printf.sprintf "recovery path used (%d rec, %d found, %d lost)" !recovered !found !lost)
    true
    (!recovered > 5);
  Alcotest.(check bool) "hardly anything truly lost" true (!lost <= 2)

let test_version_and_names () =
  let g = build ~beta:0.0 () in
  let store = Kvstore.Store.create ~system_key:"kv-test" g in
  let client = Kvstore.Store.connect store ~id:(any_good_client g) in
  Alcotest.(check (option int)) "absent" None (Kvstore.Store.version_of store "a");
  ignore (Kvstore.Store.put client ~name:"a" ~value:"1");
  ignore (Kvstore.Store.put client ~name:"b" ~value:"2");
  ignore (Kvstore.Store.put client ~name:"a" ~value:"3");
  Alcotest.(check (option int)) "bumped" (Some 2) (Kvstore.Store.version_of store "a");
  Alcotest.(check (list string)) "live names" [ "a"; "b" ]
    (List.sort compare (Kvstore.Store.names store))

let test_put_reserved_value_rejected () =
  let g = build ~beta:0.0 () in
  let store = Kvstore.Store.create ~system_key:"kv-test" g in
  Alcotest.check_raises "reserved" (Invalid_argument "Store.put: reserved value") (fun () ->
      ignore
        (Kvstore.Store.put
           (Kvstore.Store.connect store ~id:(any_good_client g))
           ~name:"x" ~value:"\x00<deleted>"))

let test_client_sessions_and_route_cache () =
  let g = build ~beta:0.0 () in
  let m = Sim.Metrics.create () in
  let store = Kvstore.Store.create ~metrics:m ~system_key:"kv-test" g in
  let client = Kvstore.Store.connect store ~id:(any_good_client g) in
  Alcotest.(check bool) "client remembers its id" true
    (Idspace.Point.equal (Kvstore.Store.client_id client) (any_good_client g));
  ignore (Kvstore.Store.put client ~name:"hot" ~value:"v1");
  Alcotest.(check bool) "first route misses the cache" true
    (Sim.Metrics.get m Sim.Metrics.kv_route_cache_miss > 0);
  Alcotest.(check bool) "miss is not reported cached" false
    (Kvstore.Store.last_op_stats store).Kvstore.Store.route_cached;
  (match Kvstore.Store.get client ~name:"hot" with
  | Kvstore.Store.Found { value; _ } -> Alcotest.(check string) "cached read" "v1" value
  | _ -> Alcotest.fail "expected Found via the cache");
  Alcotest.(check bool) "second route hits the cache" true
    (Sim.Metrics.get m Sim.Metrics.kv_route_cache_hit > 0);
  let stats = Kvstore.Store.last_op_stats store in
  Alcotest.(check bool) "hit reported" true stats.Kvstore.Store.route_cached;
  Alcotest.(check int) "hit takes one hop" 1 stats.Kvstore.Store.hops;
  (* Rehome invalidates: the session retargets, the next route walks. *)
  let hits_before = Sim.Metrics.get m Sim.Metrics.kv_route_cache_hit in
  let migrated = Kvstore.Store.rehome store (Kvstore.Store.graph store) in
  Alcotest.(check int) "epoch index bumped" 1 (Kvstore.Store.epoch_index migrated);
  Alcotest.(check int) "invalidation counted" 1
    (Sim.Metrics.get m Sim.Metrics.kv_route_cache_invalidated);
  Kvstore.Store.retarget client migrated;
  Alcotest.(check bool) "retargeted" true (Kvstore.Store.client_store client == migrated);
  (match Kvstore.Store.get client ~name:"hot" with
  | Kvstore.Store.Found { value; _ } -> Alcotest.(check string) "post-rehome read" "v1" value
  | _ -> Alcotest.fail "expected Found after rehome");
  Alcotest.(check int) "fresh cache did not hit" hits_before
    (Sim.Metrics.get m Sim.Metrics.kv_route_cache_hit)

let test_route_cache_disabled () =
  let g = build ~beta:0.0 () in
  let m = Sim.Metrics.create () in
  let store = Kvstore.Store.create ~metrics:m ~route_cache:false ~system_key:"kv-test" g in
  let client = Kvstore.Store.connect store ~id:(any_good_client g) in
  ignore (Kvstore.Store.put client ~name:"k" ~value:"v");
  ignore (Kvstore.Store.get client ~name:"k");
  ignore (Kvstore.Store.get client ~name:"k");
  Alcotest.(check int) "never hits" 0 (Sim.Metrics.get m Sim.Metrics.kv_route_cache_hit);
  Alcotest.(check int) "every route misses" 3
    (Sim.Metrics.get m Sim.Metrics.kv_route_cache_miss)

(* Model-based property: random put/delete/get sequences agree with a
   reference map when there is no adversary. *)
let prop_store_matches_reference =
  QCheck.Test.make ~name:"store behaves like a map (beta = 0)" ~count:15
    QCheck.(list (pair (int_range 0 9) (option (int_range 0 99))))
    (fun ops ->
      let g = build ~n:128 ~beta:0.0 () in
      let store = Kvstore.Store.create ~system_key:"kv-model" g in
      let client = Kvstore.Store.connect store ~id:(any_good_client g) in
      let reference = Hashtbl.create 16 in
      List.for_all
        (fun (k, v) ->
          let name = Printf.sprintf "key-%d" k in
          (match v with
          | Some value ->
              Hashtbl.replace reference name (string_of_int value);
              ignore
                (Kvstore.Store.put client ~name ~value:(string_of_int value))
          | None ->
              Hashtbl.remove reference name;
              ignore (Kvstore.Store.delete client ~name));
          match (Kvstore.Store.get client ~name, Hashtbl.find_opt reference name) with
          | Kvstore.Store.Found { value; _ }, Some expected -> String.equal value expected
          | Kvstore.Store.Not_found _, None -> true
          | _ -> false)
        ops)

let () =
  Alcotest.run "kvstore"
    [
      ( "store",
        [
          Alcotest.test_case "put/get roundtrip" `Quick test_put_get_roundtrip;
          Alcotest.test_case "missing record" `Quick test_get_missing;
          Alcotest.test_case "overwrite" `Quick test_overwrite;
          Alcotest.test_case "deterministic keys" `Quick test_keys_deterministic;
          Alcotest.test_case "home is the successor group" `Quick test_home_is_successor;
          Alcotest.test_case "coverage under attack" `Slow test_coverage_under_attack;
          Alcotest.test_case "rehome across an epoch" `Slow test_rehome_preserves_records;
          Alcotest.test_case "empty coverage rejected" `Quick test_coverage_empty_rejected;
          Alcotest.test_case "delete and tombstones" `Quick test_delete_tombstones;
          Alcotest.test_case "read repair after loss" `Quick test_degrade_triggers_read_repair;
          Alcotest.test_case "recovery from survivors" `Quick
            test_heavy_loss_recovers_from_survivors;
          Alcotest.test_case "versions and names" `Quick test_version_and_names;
          Alcotest.test_case "reserved value rejected" `Quick test_put_reserved_value_rejected;
          Alcotest.test_case "client sessions and route cache" `Quick
            test_client_sessions_and_route_cache;
          Alcotest.test_case "route cache disabled" `Quick test_route_cache_disabled;
        ] );
      ("model", [ QCheck_alcotest.to_alcotest prop_store_matches_reference ]);
    ]
