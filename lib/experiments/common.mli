(** Shared builders and the parallel fan-out entry point for the
    experiment modules. *)

open Adversary

val build_tiny :
  Prng.Rng.t ->
  ?jobs:int ->
  ?params:Tinygroups.Params.t ->
  ?overlay:Tinygroups.Epoch.overlay_kind ->
  n:int ->
  beta:float ->
  unit ->
  Population.t * Tinygroups.Group_graph.t
(** One freshly generated population and its directly built
    tiny-group graph (member oracle ["h1"]). [?jobs] (default 1) fans
    the formation loop out ({!Tinygroups.Group_graph.build_direct});
    the result is identical at every value. *)

val build_sized :
  Prng.Rng.t ->
  ?jobs:int ->
  sizing:Tinygroups.Params.sizing ->
  n:int ->
  beta:float ->
  unit ->
  Population.t * Tinygroups.Group_graph.t
(** Same with an explicit sizing rule (baselines and sweeps). *)

val h1 : Hashing.Oracle.t
(** The deployment's member oracle, shared so graphs are comparable
    across experiments. *)

(** {1 Parallel trials}

    Every quantitative claim is an average over independent seeded
    runs, so experiments fan their trials (and independent
    configuration rows) out over a {!Parallel.Pool}. All three
    entry points return results in input order and derive one
    {!Parallel.Fanout} substream per item up front, which makes the
    output of any experiment identical for every [~jobs] value. *)

val run_trials : Prng.Rng.t -> jobs:int -> trials:int -> (Prng.Rng.t -> 'a) -> 'a list
(** [run_trials rng ~jobs ~trials f] runs [f] once per trial, each on
    its own substream, at most [jobs] at a time. *)

val run_trials_metrics :
  Prng.Rng.t ->
  metrics:Sim.Metrics.t ->
  jobs:int ->
  trials:int ->
  (Prng.Rng.t -> Sim.Metrics.t -> 'a) ->
  'a list
(** Like {!run_trials} for trial bodies that account costs: each
    trial gets a private {!Sim.Metrics.t} (so domains never share a
    counter table) and all of them are {!Sim.Metrics.merge}d into
    [metrics] afterwards, in trial order. *)

val map_configs : Prng.Rng.t -> jobs:int -> 'a list -> ('a -> Prng.Rng.t -> 'b) -> 'b list
(** [map_configs rng ~jobs configs f] is the config-sweep shape of
    {!run_trials}: one work item (and one substream) per
    configuration, e.g. per [(n, beta)] cell of a table. [f] must
    confine mutation to its substream and to values it builds
    itself; group graphs, populations and overlays are immutable
    after construction and can be shared as they are. *)
