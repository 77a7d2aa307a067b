(** The group graph [G] (paper §II-A): one group per ID, wired by the
    topology of the input graph [H].

    Vertices are groups [G_w], one per ID [w] of the population; edges
    mirror [H]'s links ([G_u] is a neighbour of [G_w] iff [u] is a
    neighbour of [w] in [H]). A group is {b blue} when it is good
    {e and} its neighbour set was established correctly, {b red}
    otherwise (S1–S3). The adversary owns every red group.

    Representation: the graph is flat and aligned to the population's
    sorted ring — a [Group.t array] indexed by ring rank and
    rank-indexed confused/suspect bitmaps. Point-keyed queries find a
    leader's rank with the ring's own binary search ({!Idspace.Ring.rank}),
    so the ring is the graph's only index.

    A graph is immutable once built: colours are fixed at construction
    (S1–S3) and for the graph's epoch (§III-A), and the constructors
    compute every derived index, the ascending {!blue_leaders} array
    included. A graph can therefore be read from many domains at
    once with no warm-up.

    Two constructors exist:
    - {!build_direct} wires members straight from the hash oracle and
      the true ring — the static case of §II and the assumed-correct
      initial graphs [G⁰] of §III-A;
    - {!assemble} accepts externally formed groups and an explicit
      confused set — used by the epoch protocol (§III), where
      membership travels through searches in the old graphs and can
      therefore be corrupted. *)

open Idspace
open Adversary

type color = Blue | Red

type t

val params : t -> Params.t
val population : t -> Population.t
val overlay : t -> Overlay.Overlay_intf.t

(** Incremental group formation sharing one scratch buffer across
    groups: member draws land as successor {e ranks} in a reusable
    int array, are sorted and deduplicated in place, and only the
    final member array is allocated. {!build_direct} and the benches
    form their groups through this. *)
module Builder : sig
  type b

  val create :
    params:Params.t ->
    population:Population.t ->
    member_oracle:Hashing.Oracle.t ->
    b

  val form_group : b -> Point.t -> Group.t
end

val build_direct :
  ?jobs:int ->
  params:Params.t ->
  population:Population.t ->
  overlay:Overlay.Overlay_intf.t ->
  member_oracle:Hashing.Oracle.t ->
  unit ->
  t
(** Form [G_w] for every ID [w] with members
    [suc(oracle(w, i))], [i = 1 .. draws], where [draws] comes from
    [w]'s decentralised [ln ln n] estimate. The overlay must be built
    over [population]'s ring: [Invalid_argument] otherwise.

    [?jobs] (default 1) fans the formation loop over that many
    domains with {!Parallel.Pool.map_slices}: the rank space is cut
    into contiguous slices fixed before any work is scheduled, each
    slice runs its own {!Builder}, and the slices are concatenated in
    rank order. Every group is a pure function of (ring, oracle,
    rank), so the result is byte-identical at every [jobs] — pinned
    by a test at jobs [1] vs [4]. *)

val assemble :
  params:Params.t ->
  population:Population.t ->
  overlay:Overlay.Overlay_intf.t ->
  groups:Group.t array ->
  confused:Point.t list ->
  ?suspect:Point.t list ->
  unit ->
  t
(** Wrap externally constructed groups (epoch protocol, churn).
    [groups] is in ring-rank order: one group per ID of the
    population, [groups.(r)] led by the ID of rank [r]; the graph
    takes the array over, so the caller must not mutate it afterwards.
    [?suspect] (default none) lists leaders whose links the
    reliability layer gave up on — degraded, not poisoned.
    @raise Invalid_argument if [groups] has the wrong length or a
    group sits at another leader's rank, or if a confused or suspect
    point is not an ID of the population. *)

val equal : t -> t -> bool
(** Structural equality: same leaders in rank order, identical member
    sets, ground-truth labels and health per group, identical
    confused/suspect bitmaps. The gate behind every jobs-invariance
    assertion — the parallel build and transition paths must produce
    a graph [equal] to the sequential one. Params, population and
    overlay identity are {e not} compared. *)

val group_of : t -> Point.t -> Group.t
(** The group the point leads, found by the leader's ring rank.
    @raise Not_found for a point that is not a leader. *)

(** {2 Rank access}

    The graph is aligned to the population's ring, which is also the
    overlay's ring ({!build_direct} and {!assemble} raise
    [Invalid_argument] otherwise). A rank the overlay's walk produces
    therefore indexes the group it names directly, with no leader
    lookup. *)

val group_at : t -> int -> Group.t
(** The group led by the ID of the given rank. *)

val red_at : t -> int -> bool
(** {!color_of} [= Red], by rank. *)

val hijacked_at : t -> int -> bool
(** {!hijacked}, by rank. *)

val color_of : t -> Point.t -> color
(** Red iff the group is not {!Group.Good} or its leader is
    confused — the conservative classification of §II. *)

val hijacked : t -> Point.t -> bool
(** The group has lost its good majority (or is confused): the
    physical notion of adversary control. *)

val leaders : t -> Point.t array
(** All leaders, i.e. the population's IDs. *)

val n_groups : t -> int

val groups : t -> Group.t array
(** A copy of the groups in ring-rank order: [(groups t).(r)] is
    {!group_at}[ t r] — the array {!assemble} takes. *)

val confused_leaders : t -> Point.t list
(** The confused leaders, ascending by ring position. *)

val iter_groups : (Point.t -> Group.t -> unit) -> t -> unit
(** Visit every (leader, group) pair in {e ring order} — ascending
    ring rank, i.e. the order of {!leaders}. The order is part of the
    golden-digest contract: order-sensitive sweeps (PRNG-consuming
    trials, float accumulations, first-k picks) consume it, and a
    qcheck case pins it to {!leaders}. *)

val fold_groups : (Point.t -> Group.t -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold in the same ring order as {!iter_groups}. *)

type census = {
  total : int;
  good : int;
  weak : int;
  hijacked_ : int;
  confused_ : int;  (** Confused leaders (possibly also unhealthy). *)
  suspect_ : int;
      (** Leaders with retry-exhausted (suspect) routes — degraded
          but not red. *)
  red : int;  (** Not good or confused: the paper's red count. *)
}

val census : t -> census

val blue_leaders : t -> Point.t array
(** All blue-group leaders in ascending ring order: the leaders of
    the ranks where {!red_at} is [false], computed once by the
    constructors (O(1) here). Sweeps index the array with raw PRNG
    draws, so the layout is digest-relevant. Callers must not mutate
    the array. *)

val random_blue_leader : Prng.Rng.t -> t -> Point.t option
(** A uniform blue-group leader; [None] if every group is red. *)

val mean_group_size : t -> float
