(** The labelled ID population: who is good, who is bad.

    A population is the ground truth of one experiment instant — the
    ring of all IDs together with the adversary's subset. Components
    never branch on goodness except where the model allows (a bad ID
    may deviate arbitrarily; a good ID follows the protocol);
    measurement code uses {!is_bad} to classify outcomes.

    A population is immutable: the ring of all IDs, the bad ring and
    the good ring are all built by the constructors ({!make},
    {!generate}, {!add_batch}, {!remove_batch}), so every query below
    is a read and a population can be shared across domains as it
    is. *)

open Idspace

type t

val make : good:Point.t list -> bad:Point.t list -> t
(** Requires the two lists to be disjoint and each duplicate-free. *)

val generate :
  Prng.Rng.t -> n:int -> beta:float -> strategy:Placement.t -> t
(** [generate rng ~n ~beta ~strategy] creates [ceil (beta * n)] bad
    IDs by [strategy] and fills up to [n] total with u.a.r. good IDs.
    This is the §I-C model: at most a [beta] fraction bad. *)

val ring : t -> Ring.t
(** All present IDs. *)

val bad_ring : t -> Ring.t
(** The bad IDs as a ring snapshot — lets verifiers binary-search
    successors among bad IDs without rebuilding a ring per query. *)

val n : t -> int

val is_bad : t -> Point.t -> bool
(** [false] for IDs not in the population. *)

val bad_count : t -> int

val beta_actual : t -> float
(** Realised bad fraction (can be below the target under
    {!Placement.Omit}). *)

val good_ids : t -> Point.t array
(** The good IDs in ascending ring order, a fresh array: the ring of
    all IDs minus {!bad_ring}. *)

val bad_ids : t -> Point.t array
val all_ids : t -> Point.t array

val remove_batch : t -> Point.t list -> t
(** Functional removal for churn, in one merged pass over each ring:
    O(n + k log k). Absent IDs are ignored. *)

val add_batch : t -> good:Point.t list -> bad:Point.t list -> t
(** Functional admission for churn, in one merged pass over each
    ring: O(n + k log k). Raises [Invalid_argument] if any ID is
    already present or the lists contain duplicates. *)

val random_good : Prng.Rng.t -> t -> Point.t
(** A uniform good ID, one PRNG draw indexing {!good_ids}; raises
    [Invalid_argument] if none exist. *)
