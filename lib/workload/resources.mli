(** Named resources and their key-space placement (Appendix VI).

    Applications store {e resources} (files, job descriptors, name
    records); the key of a resource is the hash of its name under a
    globally known function, and the ID nearest clockwise of the key
    is responsible for it. This module gives experiments and
    examples a concrete resource universe with optionally skewed
    (Zipf) popularity, the classic shape of content-sharing
    workloads. *)

open Idspace

type t

val make : system_key:string -> names:string array -> t
(** A resource universe; keys are derived per name with the
    deployment's public hash function. *)

val synthetic : system_key:string -> count:int -> prefix:string -> t
(** [count] resources named [prefix ^ string_of_int i]. *)

val count : t -> int
val name : t -> int -> string
val key : t -> int -> Point.t
(** The ID-space key of resource [i]. *)

type popularity = Uniform_pop | Zipf of float

val sampler : Prng.Rng.t -> t -> popularity -> unit -> int
(** [sampler rng t pop] draws resource indices: uniformly, or
    Zipf-distributed with the given exponent over the universe in
    index order (index 0 most popular). *)

type dist
(** A popularity distribution with its cumulative weights
    precomputed — immutable, so one table can serve many independent
    PRNG streams (closed-loop users each draw from their own). *)

val distribution : t -> popularity -> dist
val draw : Prng.Rng.t -> dist -> int
(** One resource index from an explicit stream. *)
