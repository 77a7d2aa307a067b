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

(** {1 Parallel configurations}

    Every quantitative claim is an average over independent seeded
    runs, so experiments fan their independent configuration rows out
    over a {!Parallel.Pool}. Results come back in input order, and one
    {!Parallel.Fanout} substream is derived per item up front, which
    makes the output of any experiment identical for every [~jobs]
    value. *)

val map_configs : Prng.Rng.t -> jobs:int -> 'a list -> ('a -> Prng.Rng.t -> 'b) -> 'b list
(** [map_configs rng ~jobs configs f] runs [f] once per
    configuration, at most [jobs] at a time, with one work item (and
    one substream) per configuration, e.g. per [(n, beta)] cell of a table. [f] must
    confine mutation to its substream and to values it builds
    itself; group graphs, populations and overlays are immutable
    after construction and can be shared as they are. *)
