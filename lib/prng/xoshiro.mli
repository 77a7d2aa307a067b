(** xoshiro256** — the workhorse generator for all simulations.

    High-quality, 256-bit state, period 2^256 - 1. Seeded from
    {!Splitmix} so that a single [int64] seed reproduces a whole
    experiment. See Blackman and Vigna, "Scrambled linear pseudorandom
    number generators" (TOMS 2021). *)

type t
(** Mutable generator state. *)

val create : int64 -> t
(** [create seed] expands [seed] through SplitMix64 into the 256-bit
    state. Seeds producing the all-zero state are remapped. *)

val of_splitmix : Splitmix.t -> t
(** [of_splitmix sm] draws the initial state from [sm], advancing it. *)

val copy : t -> t
(** Independent generator with identical state. *)

val next : t -> int64
(** 64 fresh pseudo-random bits. *)
