(** The population of IDs on the unit ring, with successor queries.

    [suc(x)] — the first ID at or clockwise of a point [x] — is the
    primitive every construction in the paper builds on: key
    responsibility (P2), group membership draws [suc(h1(w,i))]
    (§III-A), and Chord-style finger targets. Backed by an immutable
    sorted array of unboxed points: queries are cache-friendly binary
    searches, and churn merges batches in O(n).
    {!add} keeps the points it adds in a small sorted delta beside the
    array, so a run of single adds does not copy the whole snapshot
    each time. {!random_member} and {!nth} are O(1) on a compact ring
    and O(log √n) while a delta is pending. *)

type t
(** An immutable snapshot of the ID population. *)

val empty : t

val of_list : Point.t list -> t
val of_array : Point.t array -> t

val add : Point.t -> t -> t
(** Single-point join. The new ring shares the old one's sorted array
    and copies only the delta of points added since it was last
    compacted: O(√n). Once the delta holds about √n points, [add]
    folds it into a fresh array in one O(n) merge, so k adds cost
    O(k √n) in all. Until then queries search the delta as well:
    {!nth} becomes O(log √n) and the searches pay one more binary
    search. Adding a present point returns the ring unchanged. *)

val remove : Point.t -> t -> t
(** Single-point departure: one O(n) copy into a compact ring.
    Removing an absent point returns the ring unchanged. *)

val add_batch : Point.t list -> t -> t
(** [add_batch ps t] merges all of [ps] in one O(n + |ps| log |ps|)
    pass into a compact ring — the churn-batch form of k× {!add}.
    Duplicates (within [ps] or against [t]) are absorbed. *)

val remove_batch : Point.t list -> t -> t
(** One-pass counterpart of k× {!remove}: a binary search per point
    sizes the result, then one merge fills it, O(n + k log n). Absent
    points are ignored. *)

val mem : Point.t -> t -> bool

val cardinal : t -> int

val successor : t -> Point.t -> Point.t option
(** [successor t x] is the first ID encountered at [x] or moving
    clockwise from [x] (i.e. [suc(x)], which may be [x] itself when
    [x] is an ID). [None] iff the ring is empty. *)

val successor_exn : t -> Point.t -> Point.t
(** @raise Not_found when empty. *)

val strict_successor : t -> Point.t -> Point.t option
(** First ID strictly clockwise of [x]; wraps around. With one ID [p],
    [strict_successor t p = Some p]. *)

val strict_successor_exn : t -> Point.t -> Point.t
(** Allocation-free {!strict_successor}.
    @raise Not_found when empty. *)

val predecessor : t -> Point.t -> Point.t option
(** First ID strictly counter-clockwise of [x]; wraps around. *)

val responsibility : t -> Point.t -> Interval.t option
(** [responsibility t id] is the arc of keys whose successor is [id]
    (the arc (pred(id), id]); requires [id] to be in the ring.
    [None] if [id] is absent. With a single ID the arc is the whole
    ring. *)

val nth : t -> int -> Point.t
(** The ID at sorted position [i] (its {e rank}), O(1) on a compact
    ring. Ranks are stable for a given snapshot: [nth t (rank t p) = p].
    @raise Invalid_argument when [i] is outside [0, cardinal t). *)

val rank : t -> Point.t -> int
(** Sorted position of an ID, or [-1] when absent. *)

val successor_rank : t -> Point.t -> int
(** [successor_rank t x] is the rank of [suc(x)] — the successor query
    the group builder and Chord's linking rule use.
    @raise Not_found when empty. *)

val to_sorted_array : t -> Point.t array
(** All IDs in increasing ring position (a fresh array). *)

val equal : t -> t -> bool
(** Same IDs, so the same ranks: O(1) for one snapshot, O(n)
    otherwise. *)

val fold : (Point.t -> 'a -> 'a) -> t -> 'a -> 'a
val iter : (Point.t -> unit) -> t -> unit
(** Ascending ring position, like the sorted array. *)

val random_member : Prng.Rng.t -> t -> Point.t
(** Uniform member of a non-empty ring: one PRNG draw, then {!nth}. *)

val populate : Prng.Rng.t -> int -> t
(** [populate rng n] is a ring of [n] independent uniform IDs (the
    paper's u.a.r. placement). Collisions are redrawn, matching the
    continuous model where they are measure-zero. *)
