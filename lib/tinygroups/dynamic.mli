(** Per-event joins and departures (paper §III-A, footnote 13:
    "a join or departure requires updating only poly(log n) links in
    a group graph").

    The epoch driver ({!Epoch}) rebuilds whole graphs; this module
    handles one event at a time on a live graph and accounts its
    cost, which is the quantity footnote 13 bounds:

    {b Join} of ID [w]: solicit members for [G_w] through the old
    graphs ([O(lnln n)] dual searches), establish [L_w]
    ([O(|L_w|)] dual searches), and update every existing group whose
    linking rule now prefers [w] — for Chord the [O(log n)] groups
    whose finger target lands in the arc [w] captured.

    {b Departure} of ID [w]: the groups containing [w] drop a member
    (their health is recounted, the margin §III's [eps'] protects),
    the reverse-neighbour groups null their link to [G_w], and [G_w]
    itself persists in a passive role until expiry — modelled here by
    excising it together with its leader, since a single live graph
    has no "next epoch" to stay passive for.

    Costs are reported per event; experiment E18 checks the polylog
    shape. *)

open Idspace

type cost = {
  searches : int;  (** Routed searches performed. *)
  messages : int;  (** Their message total. *)
  affected_groups : int;
      (** Existing groups whose neighbour lists had to change. *)
  member_updates : int;
      (** Group memberships created or dissolved by the event. *)
}

val join :
  Prng.Rng.t ->
  Sim.Metrics.t ->
  Group_graph.t ->
  old_pair:Membership.old_pair ->
  member_oracle:Hashing.Oracle.t ->
  id:Point.t ->
  bad:bool ->
  Group_graph.t * cost
(** Admit [id]; requests travel through [old_pair] exactly as in the
    epoch construction. The newcomer's searches draw from a stream
    keyed on its identity ([Prng.Rng.of_subkey] of a base drawn from
    [rng] at the ID's turn), and the one overlay reconstruction is
    counted under {!Sim.Metrics.overlay_rebuilds}. Raises
    [Invalid_argument] if [id] is already present. *)

val join_many :
  Prng.Rng.t ->
  Sim.Metrics.t ->
  Group_graph.t ->
  old_pair:Membership.old_pair ->
  member_oracle:Hashing.Oracle.t ->
  ids:(Point.t * bool) list ->
  Group_graph.t * cost
(** Admit a batch of [(id, bad)] newcomers with one merged population
    pass, one overlay rebuild (counted under
    {!Sim.Metrics.overlay_rebuilds} and asserted to be exactly one
    per batch) and one graph assembly. The per-ID protocol
    (solicitation draws, link establishment, captured-group
    verification, and the identity-keyed draw discipline of {!join})
    is replayed exactly as the one-at-a-time fold of {!join} would
    run it — the j-th newcomer sees a ring holding the first j-1,
    queried through memo-free neighbour functions instead of per-ID
    overlay reconstructions — so the resulting graph and aggregate
    cost equal the fold's (pinned by a test). Raises
    [Invalid_argument] on a present or duplicated ID. *)

val depart : Group_graph.t -> id:Point.t -> Group_graph.t * cost
(** Remove [id]. Raises [Invalid_argument] if absent. *)

val depart_many : Group_graph.t -> ids:Point.t list -> Group_graph.t * cost
(** Remove a batch of IDs with one merged ring pass and one overlay
    rebuild. The resulting graph equals folding {!depart} over [ids]
    in order; the cost aggregates, except [affected_groups], which is
    counted against the starting overlay rather than the k
    intermediate ones. Raises [Invalid_argument] on an absent or
    duplicated ID. *)

val captured_by : Group_graph.t -> id:Point.t -> Point.t list
(** The existing leaders whose Chord-style linking rule would link to
    [id] once it joins (the reverse-neighbour set); exposed for tests
    and the E18 accounting. *)
