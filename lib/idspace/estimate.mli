(** Decentralised estimation of [ln n] and [ln ln n].

    Groups have size [Θ(ln ln n)] but no participant knows [n]. The
    paper (§III-A, footnote 15) estimates [ln n] to within a constant
    factor from the nearest-neighbour distance: for u.a.r. IDs the
    clockwise gap [d] between adjacent IDs satisfies
    [alpha''/n^2 <= d <= alpha' ln n / n] w.h.p., so
    [ln(1/d) = Θ(ln n)] and [ln ln (1/d) = ln ln n + O(1)] — robust
    even when the adversary withholds IDs. *)

val ln_n : Ring.t -> Point.t -> float
(** Estimate of [ln n] observed from [id]'s local gap: [ln(1/d)],
    where [d] is the fractional clockwise distance from [id] to its
    successor ID, clamped to be at least 1. Requires at least two
    IDs. *)

val ln_ln_n : Ring.t -> Point.t -> float
(** Estimate of [ln ln n]: [ln (ln (1/d))], clamped to at least 1. *)

val group_size : d:float -> Ring.t -> Point.t -> int
(** [group_size ~d ring id] is the group size [ceil (d * ln ln n)]
    that [id] derives from its local estimate, clamped to at least 3
    (a majority needs three members). *)

val exact_ln_ln : int -> float
(** [exact_ln_ln n] is [ln (ln n)] for reference comparisons,
    clamped to at least 1. *)
