open Adversary

let h1 = Hashing.Oracle.make ~system_key:"tinygroups-repro" ~label:"h1"

let build_sized rng ?(jobs = 1) ~sizing ~n ~beta () =
  let params = Tinygroups.Params.with_sizing Tinygroups.Params.default sizing in
  let params = { params with Tinygroups.Params.beta } in
  let pop =
    Population.generate (Prng.Rng.split rng) ~n ~beta ~strategy:Placement.Uniform
  in
  let overlay = Overlay.Chord.make (Population.ring pop) in
  ( pop,
    Tinygroups.Group_graph.build_direct ~jobs ~params ~population:pop ~overlay
      ~member_oracle:h1 () )

let build_tiny rng ?(jobs = 1) ?(params = Tinygroups.Params.default)
    ?(overlay = Tinygroups.Epoch.Chord) ~n ~beta () =
  let params = { params with Tinygroups.Params.beta } in
  let pop =
    Population.generate (Prng.Rng.split rng) ~n ~beta ~strategy:Placement.Uniform
  in
  let ov = Tinygroups.Epoch.build_overlay overlay (Population.ring pop) in
  ( pop,
    Tinygroups.Group_graph.build_direct ~jobs ~params ~population:pop ~overlay:ov
      ~member_oracle:h1 () )

(* Streams are split off [rng] before any work is scheduled (inside
   Fanout), so results do not depend on [jobs]; the pool is clamped to
   the batch size so short batches never spawn idle domains. *)
let map_configs rng ~jobs configs f =
  let jobs = max 1 (min jobs (List.length configs)) in
  Parallel.Pool.with_pool ~jobs (fun pool -> Parallel.Fanout.map pool rng configs ~f)

let run_trials rng ~jobs ~trials f =
  map_configs rng ~jobs (List.init trials Fun.id) (fun _ stream -> f stream)

let run_trials_metrics rng ~metrics ~jobs ~trials f =
  let out =
    run_trials rng ~jobs ~trials (fun stream ->
        let m = Sim.Metrics.create () in
        (f stream m, m))
  in
  List.map
    (fun (v, m) ->
      Sim.Metrics.merge metrics m;
      v)
    out
