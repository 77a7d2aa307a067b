(** Chord++ — randomized-finger Chord routing, after Awerbuch and
    Scheideler's low-congestion Chord variant [6] (an input-graph
    option the paper names), which also provides the {e route
    diversity} that the multi-path resilience line of related work
    ([12], [26], [37]) exploits.

    Same ring, same finger linking rule as {!Chord} (so P3
    verification is identical), but each hop chooses
    pseudo-randomly among the fingers that make at least half the
    greedy progress. Each hop still shrinks the clockwise distance
    geometrically, so P1's [O(log N)] bound stands (paths run ~15%
    longer), and distinct [salt]s yield largely edge-disjoint middle
    segments: a search blocked by a red group can be retried on a
    different path, which plain greedy Chord cannot do (experiment
    E16).

    Route randomness is derived deterministically from
    [(salt, src, key, hop)], so searches remain replayable pure
    functions. *)

open Idspace

val make : ?salt:int -> Ring.t -> Overlay_intf.t
(** [make ~salt ring]: views with different salts share the linking
    rule (and therefore verification) but route along different
    near-greedy paths. Default salt 0. The view's [rebuild] keeps
    [salt]. *)
