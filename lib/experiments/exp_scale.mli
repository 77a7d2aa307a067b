(** E25: the stress scale tier — tiny groups vs the log n baseline at
    n = 2^17..2^20 (ROADMAP "Million-ID scale tier").

    The rendered table is a pure function of (seed, scale): group
    sizes, the per-node |G|^2 communication cost of each scheme, the
    widening tiny-vs-log n gap, churn update counts, and the
    jobs=1 vs jobs=4 build-determinism gate. Measurements that cannot
    be deterministic — wall-clock, peak RSS, reachable heap words —
    appear only in {!to_json} (the committed BENCH_scale.json written
    by [make bench-scale]). *)

type side = {
  mean_g : float;  (** mean group size *)
  comm : float;  (** mean |G|^2 over groups: per-node cost of a round *)
  red : int;
  words_per_node : int;  (** measured (JSON only) *)
  build_s : float;  (** measured (JSON only) *)
}

type row = {
  n : int;
  k : int;  (** churn batch size, min(512, n/64) *)
  tiny : side;
  logn : side;
  gap : float;  (** [logn.comm /. tiny.comm] *)
  jobs_match : bool;
      (** [build_direct ~jobs:1] and [~jobs:4] over one population
          produced structurally identical graphs *)
  depart_updates : int;
  join_updates : int;
  join_lone_leaders : int;
      (** newcomers whose every member draw failed (lone-leader
          fallback, surely-not-good groups) *)
  join_overlay_rebuilds : int;
      (** overlay reconstructions charged to the join batch — exactly
          1 by the O(1)-rebuild contract *)
  build_j4_s : float;  (** measured (JSON only) *)
  depart_s : float;  (** measured (JSON only) *)
  join_s : float;  (** measured (JSON only) *)
  rss_kb : int;  (** VmHWM after the row; measured (JSON only) *)
}

type report = { scale : Scale.t; rows : row list }

val run : ?jobs:int -> Prng.Rng.t -> Scale.t -> report
(** [Stress] sweeps n = 131072..1048576; [Quick] keeps the golden
    digest fast with n = 4096, 8192; other scales sit in between. *)

val to_table : report -> Table.t
(** Deterministic fields only (digest-checked via the golden net). *)

val to_json : report -> Report.t
(** Full report including the measured wall-clock/RSS/heap fields and
    the core count of the machine writing it. *)

val run_e25 : ?jobs:int -> Prng.Rng.t -> Scale.t -> Table.t
(** Registry entry point: [to_table (run ...)]. *)
