(** Distance-halving (continuous-discrete) input graph, after
    Naor and Wieder [39] — one of the constant-expected-degree
    constructions the paper's Corollary 1 invokes.

    The continuous de Bruijn graph on [0,1) has edges
    [l(x) = x/2] and [r(x) = (1+x)/2]. Each ID emulates the continuous
    graph on its responsibility arc: it links to every ID whose arc
    intersects the images of its own arc under [l] and [r], plus its
    ring predecessor and successor. Expected degree is [O(1)]; routing
    follows the bits of the key and takes [ceil(log2 N) + O(1)]
    halving steps plus a short successor walk.

    [make] applies the rule to every ID once and keeps the rows as the
    view's rank table; the route walks ranks (see {!Overlay_intf}). *)

open Idspace

val make : Ring.t -> Overlay_intf.t
(** Build the distance-halving view of a non-empty ring. *)

val half_point : bit:bool -> Point.t -> Point.t
(** The halving maps: [half_point ~bit:false x = x/2] ([l]) and
    [half_point ~bit:true x = (1+x)/2] ([r]), each prepending [bit] to
    the binary expansion of [x]; exposed for tests. *)

val halving_steps : int -> int
(** Number of halving steps used for a ring of [n] IDs; exposed for
    tests. *)
