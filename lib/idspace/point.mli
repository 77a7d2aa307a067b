(** Points of the ID space [0,1), the unit ring of the paper (§I-C).

    Represented as 62-bit fixed point: a point is a native [int] in
    [0, 2^62), unboxed, since [int] has 63 bits on 64-bit platforms.
    62 bits comfortably exceeds the [O(log n)] bits of precision the
    paper requires and matches the output width of the
    {!Hashing.Oracle} families, so oracle outputs {e are} points.
    [(p :> int)] exposes the integer; clockwise arithmetic is
    {!distance_cw} and {!add_cw}.

    "Clockwise" means increasing values, wrapping at 1. *)

type t = private int
(** A point on the unit ring. *)

val zero : t
(** The point 0. *)

val of_u62 : int64 -> t
(** [of_u62 v] interprets [v mod 2^62] as a point (values are reduced,
    negative inputs raise [Invalid_argument]). With {!to_u62}, the
    [int64] edge used by the oracle and the PRNG. *)

val to_u62 : t -> int64
(** The underlying integer in [0, 2^62). *)

val of_int : int -> t
(** [of_int v] interprets [v mod 2^62] as a point, like {!of_u62};
    negative inputs raise [Invalid_argument]. The allocation-free
    edge for {!Hashing.Oracle.draw_indexed}. *)

val of_float : float -> t
(** [of_float x] is the point at fraction [x]; requires
    [0 <= x < 1]. *)

val to_float : t -> float
(** Position as a fraction of the ring. *)

val random : Prng.Rng.t -> t
(** A uniformly random point. *)

val equal : t -> t -> bool
val compare : t -> t -> int
(** Total order by ring position (not rotation-invariant). *)

val to_key : t -> int
(** The identity [(p :> int)]. *)

val distance_cw : t -> t -> int
(** [distance_cw a b] is the clockwise distance from [a] to [b]:
    the number of ID-space units traversed moving clockwise from [a]
    until reaching [b], in [0, 2^62). [distance_cw a a = 0]. *)

val add_cw : t -> int -> t
(** [add_cw p d] moves [p] clockwise by [d] units (mod 2^62); [d] may
    be negative (counter-clockwise) or exceed 2^62. *)

val in_cw_range : from:t -> until:t -> t -> bool
(** [in_cw_range ~from ~until p] is true when [p] lies on the
    half-open clockwise arc ([from], [until]] — the arc swept moving
    clockwise from (and excluding) [from] up to and including
    [until]. When [from = until] the arc is the whole ring. *)

val pp : Format.formatter -> t -> unit
(** Prints the fractional position with 6 digits. *)

val to_string : t -> string
