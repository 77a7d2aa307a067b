(** E23: the closed-loop KV serving tier under churn.

    The paper's applications (§I-A) are serving systems — name
    services, content-sharing networks — so this experiment closes
    the loop: {!Workload.Traffic} drives simulated user cohorts
    (Zipf-popular keys, exponential think times) against
    {!Kvstore.Store} client sessions while the world keeps moving —
    live churn ({!Tinygroups.Dynamic.depart_many}/[join_many]), full
    epoch turnover ({!Tinygroups.Epoch.advance}), the resident
    adversary inside every group, and optionally a fault plan and
    reliability budget ({!Sim.Conditions}) at the request layer.

    The run is an ablation of the per-epoch route cache: the same
    world (copied PRNG streams) is served twice, cache off then on.
    Reported per mode and per op class: throughput against virtual
    time, p50/p99/p999 service latency ({!Stats.Histogram.Log}), and
    the {e transition window} — each user's first operations after a
    graph change, where the cache-on run pays its cold-cache refill
    (stores are rebuilt per epoch, so invalidation is wholesale).

    Deterministic at any [~jobs]: cohorts fan out via
    {!Common.map_configs} on private substreams; operation/key
    sequences are identical across cache modes because service-time
    modelling draws from separate per-user latency substreams. *)

type sizing = {
  n : int;
  cohorts : int;
  users : int;
  ops_per_user : int;
  segments : int;
  names : int;
  churn : int;
  transition_w : int;
}

type class_report = {
  ops : int;
  ok : int;
  msgs : int;
  p50 : float;
  p99 : float;
  p999 : float;
}

type mode_report = {
  cache : bool;
  get_ : class_report;
  put_ : class_report;
  delete_ : class_report;
  steady_ : class_report;
  transition_ : class_report;
  elapsed_ms : int;  (** Virtual makespan summed over segments. *)
  ops_per_sec : float;  (** Against virtual time. *)
  cache_hits : int;
  cache_misses : int;
  cache_invalidations : int;
  hit_rate : float;
  dropped : int;  (** Ops lost to the fault plan past the budget. *)
  retried : int;
}

type report = {
  scale : Scale.t;
  sizing : sizing;
  conditions_desc : string;
  modes : mode_report list;  (** Cache off first, then on. *)
}

val run :
  ?jobs:int -> ?conditions:Sim.Conditions.t -> Prng.Rng.t -> Scale.t -> report

val to_table : report -> Table.t
val to_json : report -> Report.t
(** The committed [BENCH_serve.json] artifact. The steady and
    transition windows carry op counts and latencies only. *)

val run_e23 :
  ?jobs:int -> ?conditions:Sim.Conditions.t -> Prng.Rng.t -> Scale.t -> Table.t
