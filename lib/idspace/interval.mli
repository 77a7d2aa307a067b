(** Half-open clockwise arcs of the unit ring.

    An interval [(from, until]] is the set of points reached moving
    clockwise from — and excluding — [from], up to and including
    [until]. Intervals are how the paper reasons about responsibility
    for keys (P2), bootstrap neighbourhoods, and the well-spread
    placements of Lemma 5. *)

type t
(** A clockwise arc. *)

val make : from:Point.t -> until:Point.t -> t
(** The arc ([from], [until]]. Equal endpoints denote the full ring. *)

val full : t
(** The whole ring. *)

val fraction : t -> float
(** The arc's length as a fraction of the whole ring ([1.] for
    {!full}). *)

val contains : t -> Point.t -> bool
(** Membership test. *)

val sample : Prng.Rng.t -> t -> Point.t
(** A uniformly random point of the arc. *)

val pp : Format.formatter -> t -> unit
