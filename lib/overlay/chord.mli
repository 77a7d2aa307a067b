(** Chord input graph (Stoica et al., SIGCOMM 2001).

    Each ID [w] links to its ring predecessor, its ring successor, and
    the fingers [suc(w + 2^j)] for every bit position [j] of the ID
    space — the exponentially increasing distances of the paper's
    footnote 11. Degree and search length are [O(log N)]; congestion is
    [O(log N / N)] w.h.p. Routing is greedy closest-preceding-finger.

    [make] builds the whole neighbour table at once, as ring ranks, in
    one forward sweep over the ring with one monotone pointer per
    stride (about 70 ms at [N = 2^17]); the view is immutable after
    that. Routes walk the table in rank space and allocate nothing
    (see {!Overlay_intf}). *)

open Idspace

val make : Ring.t -> Overlay_intf.t
(** Build the Chord view of a non-empty ring. *)
