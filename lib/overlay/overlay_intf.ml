(** The abstract input graph [H] of the paper (§I-C).

    Any DHT-style topology satisfying P1–P4 can serve as the skeleton
    of the group-graph construction:

    - {b P1 (search)}: [route ~src ~key] returns the full search path —
      the IDs traversed, starting at [src] and ending at the ID
      responsible for [key] (its successor on the ring) — of length
      [O(log N)].
    - {b P2 (load balance)}: each ID is responsible for a
      [(1+o(1))/N] fraction of the key space (a property of u.a.r.
      placement, measured by {!Probe}).
    - {b P3 (linking rules)}: [neighbors id] is the deterministic set
      [S_id] derivable by any participant from the ring alone, so
      membership/neighbour claims are verifiable.
    - {b P4 (congestion)}: a random search traverses any fixed ID with
      probability [O(log^c N / N)] (measured by {!Probe}).

    Values of this type are pure views over an immutable
    {!Idspace.Ring.t}: rebuilding after churn means building a fresh
    value, mirroring the paper's epoch-based reconstruction. Each view
    carries its own [rebuild], so churn keeps the construction and its
    parameters (e.g. a Chord++ salt) without knowing which one it is. *)

open Idspace

type t = {
  ring : Ring.t;  (** The ID population the graph is built over. *)
  neighbors : Point.t -> Point.t list;
      (** [neighbors id] is [S_id]: the linking rule applied to [id].
          Deterministic in [ring]; duplicates removed; never contains
          [id] itself unless the ring is a singleton. *)
  neighbors_in : Ring.t -> Point.t -> Point.t list;
      (** [neighbors_in ring' id] applies the same linking rule against
          an arbitrary [ring'], with no memo — value-identical to
          [(rebuild ring').neighbors id]. Batched membership changes
          query growing ring states through this instead of rebuilding
          a memoised view per change. *)
  route : src:Point.t -> key:Point.t -> Point.t list;
      (** [route ~src ~key] is the inclusive search path from [src] to
          [suc key]. Every consecutive pair is a (directed) neighbour
          link. *)
  max_hops : int;  (** Upper bound on path length (diameter proxy). *)
  rebuild : Ring.t -> t;
      (** [rebuild ring'] is the same construction, with the same
          parameters, over [ring']: the reconstruction after churn. *)
}

let responsible t key = Ring.successor_exn t.ring key

(** [is_neighbor t u w] checks the linking rule: is [u] in [S_w]? This
    is the verification primitive of P3 used when vetting
    group-membership and neighbour requests. *)
let is_neighbor t u w = List.exists (Point.equal u) (t.neighbors w)

(** [path_ok t path key] validates a claimed search path: non-empty,
    consecutive hops are links, and it ends at the responsible ID. *)
let path_ok t path key =
  match path with
  | [] -> false
  | first :: _ ->
      let rec hops_linked = function
        | a :: (b :: _ as rest) -> is_neighbor t b a && hops_linked rest
        | [ last ] -> Point.equal last (responsible t key)
        | [] -> false
      in
      Ring.mem first t.ring && hops_linked path
