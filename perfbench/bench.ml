(* The repo benchmark: one workload per run, end-to-end metrics from an
   untraced pass, per-layer metrics from a traced one.

     bench.exe --workload churn-2e17|epoch-2048|serve-1024 --seed N
               [--seconds 1..30] [--trace 0|1] [--spans FILE]
     bench.exe --selftest

   The last line of standard output is the result object
   {"correct", "attempted", "failed", "metrics"}; the line before it is
   the run's provenance. perfbench/run.py builds this program and adds
   the commit and core count. *)

module Rng = Prng.Rng

(* Every metric this program can print, in output order, with its unit.
   perfbench/METRICS.md says which are exact (virtual quantities, a pure
   function of seed and size) and which are measured. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("ops_per_s", "1/s");
    ("reads_per_s", "1/s");
    ("msgs_per_op", "msgs");
    ("msgs_per_read", "msgs");
    ("success_rate", "ratio");
    ("peak_rss_mb", "MB");
  ]

let per_layer =
  [
    ("adversary.generate_s", "s");
    ("overlay.make_s", "s");
    ("group_graph.build_direct_s", "s");
    ("group_graph.build_alloc_mb", "MB");
    ("overlay.warm_s", "s");
    ("secure_route.search_us_p50", "us");
    ("secure_route.search_us_p99", "us");
    ("secure_route.search_count", "count");
    ("secure_route.alloc_bytes_per_op", "B");
    ("secure_route.hops_mean", "groups");
    ("dynamic.depart_many_s", "s");
    ("dynamic.join_many_s", "s");
    ("dynamic.join_alloc_mb", "MB");
    ("dynamic.join_searches", "count");
    ("dynamic.member_updates", "count");
    ("dynamic.affected_groups", "count");
    ("overlay.rebuilds", "count");
    ("group.lone_leader", "count");
    ("epoch.init_s", "s");
    ("epoch.advance_s", "s");
    ("randstring.propagate_s", "s");
    ("randstring.messages", "msgs");
    ("membership.msgs", "msgs");
    ("reliability.retry_attempted", "count");
    ("reliability.retry_exhausted", "count");
    ("faults.suppressed", "count");
    ("pow.good_evals", "evals");
    ("pow.bad_admitted", "count");
    ("group_graph.census_red", "count");
    ("group_graph.census_suspect", "count");
    ("robustness.search_success", "ratio");
    ("robustness.search_success_s", "s");
    ("parallel.jobs", "count");
    ("cores", "count");
    ("kvstore.prime_s", "s");
    ("kvstore.get_us_p50", "us");
    ("kvstore.get_us_p99", "us");
    ("kvstore.get_count", "count");
    ("kvstore.put_us_p50", "us");
    ("kvstore.put_us_p99", "us");
    ("kvstore.put_count", "count");
    ("kvstore.delete_us_p50", "us");
    ("kvstore.delete_us_p99", "us");
    ("kvstore.delete_count", "count");
    ("kvstore.route_cache_hit_rate", "ratio");
    ("kvstore.route_cache_hits", "count");
    ("kvstore.route_cache_misses", "count");
    ("kvstore.rehome_s", "s");
    ("kvstore.virtual_p50_ms", "ms");
    ("kvstore.virtual_p99_ms", "ms");
    ("workload.traffic_overhead_s", "s");
    ("gc.minor", "count");
    ("gc.major", "count");
    ("gc.allocated_mb", "MB");
    ("trace.phase_s", "s");
    ("trace.untraced_phase_s", "s");
    ("trace.overhead_s", "s");
    ("trace.top_level_share", "ratio");
    ("trace.spans", "count");
    ("host.ref_loop_ms", "ms");
  ]

let workloads = [ "churn-2e17"; "epoch-2048"; "serve-1024" ]

(* --- measurements outside the libraries ---------------------------- *)

let sp_setup = Span.register "setup"
let sp_phase = Span.register "phase"

let vmhwm_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> 0
        | line -> (
            match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with Some v -> v | None -> go ())
      in
      let v = go () in
      close_in ic;
      v

(* A fixed loop using no repo library: xorshift-indexed updates of a
   16 MiB array, so both a slower core and contended caches or memory
   bandwidth show in its time. Recorded, never used to normalise. *)
let reference_loop_ms () =
  let a = Array.make (1 lsl 21) 0 in
  let once () =
    let x = ref 0x2545F4914F6CDD1D in
    let t0 = Span.now () in
    for i = 1 to 10_000_000 do
      x := !x lxor (!x lsl 13);
      x := !x lxor (!x lsr 7);
      x := !x lxor (!x lsl 17);
      let j = !x land ((1 lsl 21) - 1) in
      a.(j) <- a.(j) + i
    done;
    float_of_int (Span.now () - t0) /. 1e6
  in
  Workloads.median (List.init 5 (fun _ -> once ()))

(* --- one run ------------------------------------------------------- *)

type pass = {
  r : Workloads.result;
  phase_ns : int;
  gc : (string * float) list;
  spans : (string * float) list;  (* per-layer figures read off the span log *)
}

let us ns = float_of_int ns /. 1e3

let span_figures () =
  let pct id =
    match Span.duration_percentiles id [ 0.5; 0.99 ] with
    | [ p50; p99 ] -> (us p50, us p99)
    | _ -> assert false
  in
  let s50, s99 = pct Workloads.sp_search in
  let g50, g99 = pct Workloads.sp_get in
  let p50, p99 = pct Workloads.sp_put in
  let d50, d99 = pct Workloads.sp_delete in
  [
    ("secure_route.search_us_p50", s50);
    ("secure_route.search_us_p99", s99);
    ("kvstore.get_us_p50", g50);
    ("kvstore.get_us_p99", g99);
    ("kvstore.put_us_p50", p50);
    ("kvstore.put_us_p99", p99);
    ("kvstore.delete_us_p50", d50);
    ("kvstore.delete_us_p99", d99);
    ("trace.top_level_share", Span.top_level_share sp_phase);
    ("trace.spans", float_of_int (Span.records ()));
  ]

let run_phase (w : 'st Workloads.t) st stream ~traced =
  Gc.full_major ();
  Span.reset_totals ();
  let gc0 = Gc.quick_stat () in
  Span.tracing := traced;
  let r = Span.call sp_phase (fun () -> w.Workloads.phase st stream) in
  Span.tracing := false;
  let gc1 = Gc.quick_stat () in
  let words (s : Gc.stat) = s.minor_words +. s.major_words -. s.promoted_words in
  {
    r;
    phase_ns = Span.last_ns.(sp_phase);
    gc =
      [
        ("gc.minor", float_of_int (gc1.minor_collections - gc0.minor_collections));
        ("gc.major", float_of_int (gc1.major_collections - gc0.major_collections));
        ("gc.allocated_mb", (words gc1 -. words gc0) *. float_of_int (Sys.word_size / 8) /. 1048576.);
      ];
    spans = (if traced then span_figures () else []);
  }

type outcome = {
  metrics : (string * float) list;
  exact : (string * float) list;
  attempted : int;
  failures : string list;
}

(* A run first repeats set-up and phase [warmups] times untimed, then
   [reps] times timed, each from the same streams, so every repetition
   does identical work and must reproduce the exact metrics;
   [setups_per_rep] timed set-ups precede each phase, the last one
   feeding it. Set-ups and phases are thus spread over the whole run,
   and the rate samples of all repetitions are pooled. Rates are their
   [Workloads.fast] quantile and [setup_s] the median of the set-up
   times. In a traced run the last repetition is traced: the
   per-layer figures come from it, and the tracing overhead is its phase
   time minus the low quantile of the untraced ones. *)
let drive (w : 'st Workloads.t) ~tiny ~seed ~trace ~spans_file =
  let master = Rng.create seed in
  let setup_stream = Rng.split master in
  let phase_stream = Rng.split master in
  let setup_s = ref [] in
  let setup ~traced =
    Gc.full_major ();
    Span.tracing := traced;
    let st, layers = Span.call sp_setup (fun () -> w.Workloads.setup (Rng.copy setup_stream)) in
    Span.tracing := false;
    setup_s := Span.seconds Span.last_ns.(sp_setup) :: !setup_s;
    (st, layers)
  in
  let rep i =
    let traced = trace && i = w.Workloads.reps - 1 in
    for _ = 2 to w.Workloads.setups_per_rep do
      ignore (setup ~traced:false)
    done;
    if traced then Span.clear_log ();
    let st, layers = setup ~traced in
    (layers, run_phase w st (Rng.copy phase_stream) ~traced)
  in
  for _ = 1 to w.Workloads.warmups do
    let st, _ = w.Workloads.setup (Rng.copy setup_stream) in
    ignore (w.Workloads.phase st (Rng.copy phase_stream))
  done;
  let reps = List.init w.Workloads.reps rep in
  let passes = List.map snd reps in
  let first = (List.hd passes).r in
  let failures =
    List.sort_uniq compare (List.concat_map (fun p -> p.r.Workloads.failures) passes)
    @
    if List.for_all (fun p -> p.r.Workloads.exact = first.Workloads.exact) passes then []
    else [ "the exact metrics differ between repetitions at one seed" ]
  in
  let pooled name =
    List.concat_map (fun p -> List.assoc name p.r.Workloads.samples) passes
  in
  let untraced, traced =
    if trace then (List.filteri (fun i _ -> i < w.Workloads.reps - 1) reps, Some (List.nth reps (w.Workloads.reps - 1)))
    else (reps, None)
  in
  let untraced_phase_ns =
    Workloads.quantile (List.map (fun (_, p) -> float_of_int p.phase_ns) untraced) (1. -. Workloads.fast)
  in
  let failures, metrics =
    match traced with
    | None ->
        ( failures,
          ("setup_s", Workloads.median !setup_s)
          :: ("peak_rss_mb", float_of_int (vmhwm_kb ()) /. 1024.)
          :: List.map (fun (name, _) -> (name, Workloads.quantile (pooled name) Workloads.fast)) first.Workloads.samples
          @ first.Workloads.exact )
    | Some (layers, t) ->
        let share = List.assoc "trace.top_level_share" t.spans in
        let failures =
          if tiny || share >= 0.9 then failures
          else
            failures
            @ [ Printf.sprintf "top-level spans cover %.3f of the traced phase, want >= 0.9" share ]
        in
        Option.iter Span.write spans_file;
        ( failures,
          layers @ t.r.Workloads.layers @ t.r.Workloads.exact @ t.gc @ t.spans
          @ [
              ("trace.phase_s", Span.seconds t.phase_ns);
              ("trace.untraced_phase_s", untraced_phase_ns /. 1e9);
              ("trace.overhead_s", (float_of_int t.phase_ns -. untraced_phase_ns) /. 1e9);
              ("cores", float_of_int (Domain.recommended_domain_count ()));
            ] )
  in
  {
    metrics;
    exact = first.Workloads.exact;
    attempted = List.fold_left (fun n p -> n + p.r.Workloads.attempted) 0 passes;
    failures;
  }

let run_workload name ~tiny ~seconds ~seed ~trace ~spans_file =
  let go w = (w.Workloads.params, drive w ~tiny ~seed ~trace ~spans_file) in
  match name with
  | "churn-2e17" -> go (Workloads.Churn.workload ~tiny ~seconds)
  | "epoch-2048" -> go (Workloads.Epochs.workload ~tiny ~seconds)
  | "serve-1024" -> go (Workloads.Serve.workload ~tiny ~seconds)
  | _ -> invalid_arg ("unknown workload " ^ name)

(* --- output -------------------------------------------------------- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 32 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_number x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let json_object fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

(* Every metric of the printed set, in catalogue order; a layer the
   workload never calls reads 0. *)
let metric_fields spec values =
  List.map
    (fun (name, unit_) ->
      let v = Option.value (List.assoc_opt name values) ~default:0. in
      (name, json_object [ ("value", json_number v); ("unit", json_string unit_) ]))
    spec

let usage =
  "usage: bench.exe --workload {churn-2e17|epoch-2048|serve-1024} --seed INT [--seconds 1..30] \
   [--trace 0|1] [--spans FILE] | --selftest"

let die msg =
  prerr_endline ("bench: " ^ msg ^ "; " ^ usage);
  exit 2

type cli = {
  mutable workload : string option;
  mutable seed : int option;
  mutable seconds : int;
  mutable trace : bool;
  mutable spans : string option;
  mutable selftest : bool;
}

let parse argv =
  let cli = { workload = None; seed = None; seconds = 10; trace = false; spans = None; selftest = false } in
  let int_arg flag v =
    match int_of_string_opt v with Some i -> i | None -> die (Printf.sprintf "%s wants an integer, got %S" flag v)
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        if not (List.mem v workloads) then die (Printf.sprintf "unknown workload %S" v);
        cli.workload <- Some v;
        go rest
    | "--seed" :: v :: rest ->
        cli.seed <- Some (int_arg "--seed" v);
        go rest
    | "--seconds" :: v :: rest ->
        let s = int_arg "--seconds" v in
        if s < 1 || s > 30 then die "--seconds must be within 1..30";
        cli.seconds <- s;
        go rest
    | "--trace" :: v :: rest ->
        (match v with
        | "0" -> cli.trace <- false
        | "1" -> cli.trace <- true
        | _ -> die (Printf.sprintf "--trace wants 0 or 1, got %S" v));
        go rest
    | "--spans" :: v :: rest ->
        cli.spans <- Some v;
        go rest
    | "--selftest" :: rest ->
        cli.selftest <- true;
        go rest
    | [ flag ] when List.mem flag [ "--workload"; "--seed"; "--seconds"; "--trace"; "--spans" ] ->
        die (flag ^ " wants a value")
    | arg :: _ -> die (Printf.sprintf "unknown argument %S" arg)
  in
  go (List.tl (Array.to_list argv));
  cli

(* The determinism test: at tiny sizes, every exact metric must repeat
   byte for byte at one seed, traced or not, and move with the seed. *)
let selftest () =
  let fingerprint exact =
    String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ json_number v) exact)
  in
  let bad = ref 0 in
  List.iter
    (fun name ->
      let run seed trace =
        let _, o = run_workload name ~tiny:true ~seconds:1 ~seed ~trace ~spans_file:None in
        List.iter (fun f -> incr bad; Printf.printf "%s seed %d: %s\n" name seed f) o.failures;
        fingerprint o.exact
      in
      let a = run 1 false and b = run 1 true and c = run 2 false in
      let same = a = b and moved = a <> c in
      if not (same && moved) then incr bad;
      Printf.printf "%s: same seed identical=%b, other seed differs=%b\n%!" name same moved)
    workloads;
  if !bad > 0 then exit 1

let () =
  let cli = parse Sys.argv in
  if cli.selftest then selftest ()
  else begin
    let name = match cli.workload with Some w -> w | None -> die "--workload is required" in
    let seed = match cli.seed with Some s -> s | None -> die "--seed is required" in
    let ref_loop = reference_loop_ms () in
    let params, o =
      run_workload name ~tiny:false ~seconds:cli.seconds ~seed ~trace:cli.trace ~spans_file:cli.spans
    in
    List.iter (fun f -> prerr_endline ("check failed: " ^ f)) o.failures;
    let metrics = ("host.ref_loop_ms", ref_loop) :: o.metrics in
    let provenance =
      json_object
        [
          ("workload", json_string name);
          ("seed", string_of_int seed);
          ("seconds", string_of_int cli.seconds);
          ("trace", if cli.trace then "1" else "0");
          ("ocaml_version", json_string Sys.ocaml_version);
          ("recommended_domain_count", string_of_int (Domain.recommended_domain_count ()));
          ("host_ref_loop_ms", json_number ref_loop);
          ("params", json_object (List.map (fun (k, v) -> (k, json_string v)) params));
          ( "exact",
            json_object (List.map (fun (k, v) -> (k, json_number v)) o.exact) );
        ]
    in
    print_endline (json_object [ ("provenance", provenance) ]);
    let spec = if cli.trace then per_layer else end_to_end in
    print_endline
      (json_object
         [
           ("correct", string_of_bool (o.failures = []));
           ("attempted", string_of_int o.attempted);
           ("failed", string_of_int (List.length o.failures));
           ("metrics", json_object (metric_fields spec metrics));
         ])
  end
