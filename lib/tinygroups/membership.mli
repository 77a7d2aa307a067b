(** Group-membership and neighbour requests through the old group
    graphs (paper §III-A).

    During epoch [j] the new graphs are wired exclusively by searches
    in the two old graphs [G1, G2]. Each primitive here models one
    such request faithfully, including what the adversary can do at
    every failure point:

    - a search that traverses a red group is {e adversary-controlled}:
      for member solicitation the adversary answers with its own ID
      nearest clockwise of the target point (any closer claim would
      name a real, verifiable ID and lose the favour-the-successor
      tie-break); for verification it answers whatever hurts — "yes"
      to spam, "no" to legitimate requests;
    - a solicited good ID verifies with one search per old graph from
      its own position and rejects when {e both} mislead it
      (erroneous rejection, Lemma 7);
    - a spammed good ID accepts a bogus request when {e either} of
      its verification searches is hijacked (Lemma 10's state
      attack).

    All message costs accumulate into the supplied
    {!Sim.Metrics.t}. *)

open Idspace

type old_pair = private {
  g1 : Group_graph.t;
  g2 : Group_graph.t option;
      (** [None] runs the naive single-graph protocol — the ablation
          showing why two graphs are necessary (§III). *)
  failure : Secure_route.failure_notion;
}
(** Immutable, like the graphs it holds: the adversary's plants are
    found in the old population's bad ring
    ({!Adversary.Population.bad_ring}), so a pair can be read from
    many domains at once with no warm-up. *)

val make_old_pair :
  ?failure:Secure_route.failure_notion ->
  Group_graph.t ->
  Group_graph.t option ->
  old_pair
(** Default failure notion: [`Conservative]. *)

type resolution =
  | Resolved of Point.t
      (** At least one search survived: the true successor (an ID of
          the old population). *)
  | Hijacked_lookup
      (** Every search was hijacked: the answer is the adversary's. *)

val dual_search :
  ?conditions:Sim.Conditions.active ->
  Prng.Rng.t ->
  Sim.Metrics.t ->
  old_pair ->
  point:Point.t ->
  resolution
(** Search for [point] in each old graph from a random blue bootstrap
    group (the paper assumes joiners know a good bootstrap group;
    Appendix IX). A graph with no blue group counts as a failed
    search.

    [?conditions] (here and below) carries the activated
    environmental layers ({!Sim.Conditions.active}, defaulting to
    {!Sim.Conditions.inert}). Its injector loses each {e individual}
    search with the plan's {!Faults.Plan.wildcard_drop} probability —
    a dropped request or response wave, indistinguishable from a
    hijack to the caller — so the dual-graph redundancy absorbs
    environmental losses with the same q_f² argument it uses against
    the adversary.

    Its tracker re-issues a lost wave up to the
    tracker's retry budget before declaring the search failed; each
    attempt draws an independent loss verdict from the injector. Retry
    and backoff accounting lands in the tracker's metrics; the
    analytic layer does not re-charge per-wave messages for
    retransmissions (consistent with its convention of not charging
    lost waves). A zero-budget tracker is inert and byte-identical
    to the disabled one of {!Sim.Conditions.inert}. *)

val solicit_member :
  ?conditions:Sim.Conditions.active ->
  Prng.Rng.t ->
  Sim.Metrics.t ->
  old_pair ->
  point:Point.t ->
  Point.t option
(** One member draw for a new group: locate [suc point] through the
    old graphs, then run the solicited ID's verification.
    [None] means the draw produced no member (erroneous rejection by
    a good ID). A returned bad ID may be either the honest successor
    that happens to be bad (Lemma 6) or the adversary's plant after a
    fully hijacked lookup. *)

val establish_neighbor :
  ?conditions:Sim.Conditions.active ->
  Prng.Rng.t ->
  Sim.Metrics.t ->
  old_pair ->
  target:Point.t ->
  bool
(** One neighbour link of a new group: [true] when the link is
    correctly established — the locating dual search resolves
    {e and} the counterpart's verification succeeds (Lemma 8's two
    failure cases). *)

val request_searches : int
(** Routed searches one solicitation or link request costs at most:
    a dual lookup plus the counterpart's dual verification (4). *)

val form_group :
  ?conditions:Sim.Conditions.active ->
  Prng.Rng.t ->
  Sim.Metrics.t ->
  old_pair ->
  now:int ->
  params:Params.t ->
  member_oracle:Hashing.Oracle.t ->
  ring:Ring.t ->
  leader:Point.t ->
  neighbors:Point.t list ->
  Group.t * bool * int
(** The §III-A protocol that forms one new group, shared by the epoch
    transition and per-event joins (footnote 13 prices a join as this
    protocol applied to one ID):

    + draw [Params.member_draws_estimated] member points for [leader]
      from [member_oracle], sized by the leader's own [ln ln n]
      estimate against [ring] (the new ring, holding [leader]);
    + {!solicit_member} each point in draw order, dropping members
      that [conditions]' injector reports crashed at epoch [now]
      (counted under {!Sim.Metrics.fault_suppressed});
    + if no draw produced a member, the leader stands alone
      (counted under {!Sim.Metrics.group_lone_leader});
    + form the group against the old population's ground truth;
    + {!establish_neighbor} each of [neighbors] in order, stopping at
      the first failure; a link the injector partitions away at [now]
      fails without a search.

    Returns the group, whether every link landed, and the searches
    issued ({!request_searches} per solicitation or link attempt).
    All draws come from [rng] in the order above. Crash and partition
    state is read only from [conditions]; under the default
    {!Sim.Conditions.inert} [now] is never read. *)

val spam_accepted :
  ?conditions:Sim.Conditions.active ->
  Prng.Rng.t ->
  Sim.Metrics.t ->
  old_pair ->
  victim:Point.t ->
  bool
(** Does a bogus membership/neighbour request against [victim]
    (a good ID) get accepted? True iff at least one of the victim's
    verification searches is hijacked and therefore parroting the
    adversary. *)

val bootstrap_pool :
  Prng.Rng.t -> Group_graph.t -> count:int -> Point.t array * bool
(** Appendix IX bootstrap: pool the members of [count] uniformly
    random groups; returns the pooled IDs and whether good IDs form a
    strict majority of the pool (what a joiner needs from
    [G_boot]). *)
