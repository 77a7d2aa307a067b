(** Empirical verification of the P1–P4 properties of an input graph.

    The group-graph analysis (§II) consumes these properties as
    numbers: [D] (search length, P1), the load-balance slack (P2),
    degree (P3), and the congestion constant [C = O(log^c n / n)]
    (P4). This module measures each of them on a concrete overlay so
    experiments can report the constants they actually ran with. *)

type path_stats = {
  searches : int;
  mean_hops : float;
  max_hops : int;
  p99_hops : int;
}

val path_lengths : Prng.Rng.t -> Overlay_intf.t -> searches:int -> path_stats
(** Route [searches] random (source, key) pairs and summarise path
    lengths (number of IDs traversed, P1's [D]). *)

val load_balance : Overlay_intf.t -> float
(** Max over IDs of [n * (fraction of key space owned)] — P2's
    [(1 + delta'')] factor. 1.0 would be perfect balance. *)

type degree_stats = { mean : float; max : int; sampled : int }

val degrees : Prng.Rng.t -> Overlay_intf.t -> sample:int -> degree_stats
(** Out-degree of [sample] random IDs (P3's [|S_w|]). *)

val congestion : Prng.Rng.t -> Overlay_intf.t -> searches:int -> float
(** Empirical congestion: route [searches] random searches, count
    traversals per ID, and return
    [max_id (traversals / searches) * n / ln n] — the constant in
    front of P4's [log n / n] bound (so O(1) output indicates
    congestion [O(log n / n)]). *)
