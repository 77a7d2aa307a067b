(** A fixed-size domain pool for trial-level parallelism.

    The experiment layer fans independent seeded trials out over
    OCaml 5 domains. A pool of [jobs] workers is created once per
    experiment and fed batches with {!map}; the calling domain
    participates in draining the queue, so a pool sized [~jobs:n]
    never uses more than [n] domains in total.

    The pool makes no ordering promises about {e execution}, only
    about {e results}: [map] always returns results in input order,
    so any caller that keeps its work items pure (no shared mutable
    state across items) gets output identical to a sequential run.
    Determinism of the randomized experiments is then purely a
    property of how PRNG streams are derived ({!Fanout}). *)

type t

val create : jobs:int -> t
(** [create ~jobs] spawns [jobs - 1] worker domains ([jobs >= 1];
    a 1-job pool spawns nothing and runs every batch inline). *)

val jobs : t -> int

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the [--jobs] default. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map t f items] applies [f] to every item, possibly in parallel,
    and returns the results in input order. If any [f] raises, the
    remaining items still run to completion and the exception raised
    by the earliest failing item is re-raised in the caller. [map]
    may only be called from the domain that created the pool (it is
    not re-entrant). *)

val map_slices : jobs:int -> n:int -> (int -> int -> 'a) -> 'a list
(** [map_slices ~jobs ~n f] cuts [[0, n)] into [max 1 (min jobs n)]
    contiguous ranges of near-equal length, fixed before any work is
    scheduled, applies [f lo hi] to each range [[lo, hi)] on a fresh
    pool of that many jobs, and returns the results in range order.
    The ranges are non-empty when [n >= 1] and cover [[0, n)] in
    ascending order. The rank-sliced builds (the group graph's
    formation loop, the epoch transition) fan out through this: a
    caller whose per-index work is a pure function of the index gets
    the same result at every [jobs]. *)

val shutdown : t -> unit
(** Stop and join the workers. The pool must not be used afterwards.
    Idempotent. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] with a fresh pool and always shuts
    it down, including on exceptions. *)
