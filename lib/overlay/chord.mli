(** Chord input graph (Stoica et al., SIGCOMM 2001).

    Each ID [w] links to its ring predecessor, its ring successor, and
    the fingers [suc(w + 2^j)] for every bit position [j] of the ID
    space — the exponentially increasing distances of the paper's
    footnote 11. Degree and search length are [O(log N)]; congestion is
    [O(log N / N)] w.h.p. Routing is greedy closest-preceding-finger.

    Finger tables are memoised lazily: experiments that only route
    through a few thousand of the [N] IDs never pay for the rest. *)

open Idspace

val make : Ring.t -> Overlay_intf.t
(** Build the Chord view of a non-empty ring. *)
