(** The sampling interface used throughout the reproduction.

    Every randomized component takes an explicit [Rng.t] so that whole
    experiments replay bit-for-bit from a single integer seed. The
    generator is xoshiro256** ({!Xoshiro}) seeded via SplitMix64. *)

type t
(** A mutable stream of pseudo-random values. *)

val create : int -> t
(** [create seed] builds a generator from an integer seed. *)

val of_int64 : int64 -> t
(** [of_int64 seed] builds a generator from a full 64-bit seed. *)

val split : t -> t
(** [split t] derives an independent substream, advancing [t]. Use one
    substream per logical actor (node, adversary, workload) so that
    adding draws to one actor does not perturb the others. *)

val copy : t -> t
(** Snapshot of the current state; the copy and original then evolve
    independently. *)

val subkey : int64 -> int64 -> int64
(** [subkey base key] derives a 64-bit stream key from a base key and
    an actor index (SplitMix finalizer over both). Pure in
    [(base, key)]: unlike {!split}, deriving actor [k]'s key is
    unaffected by how many draws or substreams any other actor
    consumed, which is what keyed parallel fan-outs (per-leader epoch
    substreams, per-newcomer join streams) need to stay byte-identical
    at every domain count. Compose for nested scopes:
    [subkey (subkey base phase) rank]. *)

val of_subkey : int64 -> int64 -> t
(** [of_subkey base key] is [of_int64 (subkey base key)]: the derived
    substream itself. *)

val bits64 : t -> int64
(** 64 uniform pseudo-random bits. *)

val int : t -> int -> int
(** [int t bound] is uniform on [0, bound); requires [bound > 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform on the inclusive range [lo, hi];
    requires [lo <= hi]. *)

val float : t -> float
(** Uniform on [0., 1.) with 53 bits of precision. *)

val bool : t -> bool
(** A fair coin. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. The certain edges
    are draw-free: [p <= 0.] and [p >= 1.] answer without consuming
    from the stream, so degenerate rates in a composite schedule do
    not perturb the draws of its live rates. *)

val exponential : t -> float -> float
(** [exponential t rate] draws from Exp(rate); requires [rate > 0]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val sample_without_replacement : t -> int -> int -> int array
(** [sample_without_replacement t k n] draws [k] distinct integers
    uniformly from [0, n); requires [0 <= k <= n]. Result order is
    unspecified. *)
