(** Measuring ε-robustness (paper §I-A, Theorem 3).

    A construction is ε-robust when at least [(1 - eps) n] groups are
    good and can securely route to each other. These estimators
    sample the quantities the theorem bounds:

    - the red-group fraction (vs the target [1 / log^k n]),
    - the success probability of a search from a random group for a
      random key (Lemma 4: [1 - O(1 / log^(k-c) n)]),
    - the survival of good majorities under intra-epoch departures
      (the [eps' = 1 - 2 (1 + delta) beta] margin of §III), and
    - the per-ID state cost (Lemma 10, Corollary 1). *)

type search_report = {
  samples : int;
  successes : int;
  success_rate : float;
  ci : Stats.Ci.interval;  (** Wilson 95% interval on the rate. *)
  mean_messages : float;  (** Mean all-to-all messages per search. *)
  mean_group_hops : float;  (** Mean groups traversed per search. *)
}

val search_success :
  Prng.Rng.t ->
  Group_graph.t ->
  failure:Secure_route.failure_notion ->
  samples:int ->
  search_report
(** Sample searches from uniform random {e good}-led groups to
    uniform random keys. *)

type departure_report = {
  groups : int;
  survived : int;  (** Groups retaining a strict good majority. *)
  survival_rate : float;
}

val departures_survival :
  Prng.Rng.t -> Group_graph.t -> fraction:float -> departure_report
(** Remove a uniform [fraction] of the {e good} members of every
    currently-good group and count survivors. The paper's churn
    model allows [fraction <= eps'/2] per epoch and claims survival;
    pushing the fraction past the margin shows the cliff. *)

type state_report = {
  per_id_links : Stats.Descriptive.summary;
      (** Per good ID: links maintained as a member of groups —
          intra-group links plus all-to-all links to the groups
          neighbouring each group it belongs to. *)
  per_id_memberships : Stats.Descriptive.summary;
      (** Number of groups each good ID belongs to. *)
}

val state_costs : Group_graph.t -> state_report
(** Full audit of Lemma 10's state quantities over all good IDs. *)
