(** Joins and departures on a live graph (paper §III-A, footnote 13:
    "a join or departure requires updating only poly(log n) links in
    a group graph").

    The epoch driver ({!Epoch}) rebuilds whole graphs; this module
    applies batches of events to a live graph and accounts their
    cost, which is the quantity footnote 13 bounds. A single event is
    a batch of one ID.

    {b Join} of ID [w]: form [G_w] through the old graphs with the
    epoch transition's own routine ({!Membership.form_group}:
    [O(lnln n)] member solicitations, then [O(|L_w|)] neighbour
    links), and update every existing group whose linking rule now
    prefers [w] — for Chord the [O(log n)] groups whose finger target
    lands in the arc [w] captured.

    {b Departure} of ID [w]: the groups containing [w] drop a member
    (their health is recounted, the margin §III's [eps'] protects),
    the reverse-neighbour groups null their link to [G_w], and [G_w]
    itself persists in a passive role until expiry — modelled here by
    excising it together with its leader, since a single live graph
    has no "next epoch" to stay passive for.

    Costs are reported per batch; experiment E18 checks the polylog
    shape of one-ID batches. *)

open Idspace

type cost = {
  searches : int;  (** Routed searches performed. *)
  messages : int;  (** Their message total. *)
  affected_groups : int;
      (** Existing groups whose neighbour lists had to change. *)
  member_updates : int;
      (** Group memberships created or dissolved by the batch. *)
}

val join_many :
  Prng.Rng.t ->
  Sim.Metrics.t ->
  Group_graph.t ->
  old_pair:Membership.old_pair ->
  member_oracle:Hashing.Oracle.t ->
  ids:(Point.t * bool) list ->
  Group_graph.t * cost
(** Admit a batch of [(id, bad)] newcomers, in list order; requests
    travel through [old_pair] exactly as in the epoch construction.
    Each newcomer's draws come from a stream keyed on its identity
    ([Prng.Rng.of_subkey] of a base drawn from [rng] at the ID's
    turn), and the j-th newcomer runs the join protocol against a
    ring holding the first j-1, queried through table-free neighbour
    functions. The batch then pays one population merge, one overlay
    rebuild (counted under {!Sim.Metrics.overlay_rebuilds}) and one
    graph assembly. So the graph and aggregate cost equal those of
    the fold of one-ID batches over [ids], which pays k of each
    (pinned by a test). An empty batch returns the graph unchanged
    with a zero cost and rebuilds nothing. Raises [Invalid_argument]
    on a present or duplicated ID. *)

val depart_many : Group_graph.t -> ids:Point.t list -> Group_graph.t * cost
(** Remove a batch of IDs with one merged ring pass and one overlay
    rebuild. The resulting graph equals the fold of one-ID batches
    over [ids] in order. The cost counts the departures as
    simultaneous, against the starting graph: [affected_groups]
    against the starting overlay rather than the k intermediate ones,
    and [member_updates] only in groups that survive the batch. The
    fold also drops members from a group whose leader departs later
    in the list, before it excises that group. An empty batch returns
    the graph unchanged with a zero cost. Raises [Invalid_argument]
    on an absent or duplicated ID. *)

val captured_by : Group_graph.t -> id:Point.t -> Point.t list
(** Existing leaders whose linking rule would link to [id] once it
    joins, as {!join_many} counts them in [affected_groups]; exposed
    for tests. Every returned leader does link to [id], but the set
    is a lower bound on the reverse-neighbour set, for Chord and
    Chord++ too: the candidate scan visits at most 9 IDs per finger
    stride, so leaders further along a crowded arc are missed. *)
