(** The two-graph epoch protocol (paper §III).

    Time is cut into epochs of [T] steps. In epoch [j] the system
    holds two {e old} group graphs [G1, G2] (built during epoch
    [j-1], fully functional) and constructs two {e new} graphs for
    epoch [j+1], wiring every new group and neighbour link through
    searches in {e both} old graphs. All IDs expire at the epoch
    boundary — every participant mints a fresh PoW ID — so each
    advance is a full population turnover, the harshest point of the
    paper's churn model.

    The [Single] mode is the ablation the paper argues against
    (§III, "a naive approach..."): one graph rebuilt from itself, so
    a request is protected by one search instead of two and the red
    fraction compounds epoch over epoch. *)

open Adversary

type mode = Paired | Single

type overlay_kind = Chord | Debruijn

type pow_control = {
  controller : Pow.Controller.config;
      (** Which difficulty regime gates admission —
          {!Pow.Controller.fixed} reproduces the paper's constant-τ
          epochs in head-count (Lemma 11), {!Pow.Controller.competitive}
          re-prices per admission sub-round. *)
  schedule : Join_schedule.t;
      (** The adversary's join strategy: when it has budget and at
          what prices it deigns to spend it. *)
}
(** Arms PoW-gated population minting: each epoch's adversarial
    head-count becomes whatever the controller's admission window let
    through at the going entrance price (good IDs stay at the
    baseline composition's good count; [size_drift] is ignored on
    this path). Spends and admits land in {!metrics} under the
    [pow.*] counters; the admission arithmetic is deterministic and
    PRNG-free, so runs differ only through the minted head-counts. *)

type config = {
  params : Params.t;
  n : int;
  overlay : overlay_kind;
  mode : mode;
  failure : Secure_route.failure_notion;
  placement : Placement.t;
      (** Where each epoch's fresh adversarial IDs land; {!Placement.Uniform}
          is what PoW enforces. *)
  size_drift : float;
      (** Per-epoch population-size drift: each epoch's [n_j] is drawn
          uniformly from [[n (1 - drift), n (1 + drift)]]. The paper
          notes its results persist while the system size stays
          [Theta(n)]; 0 (the default) reproduces the fixed-size
          model. *)
  build_jobs : int;
      (** Domains for the deterministic rank-split fan-outs (default
          1): {!Group_graph.build_direct} when {!init} builds the
          assumed-correct initial graphs, {e and} every epoch
          transition's formation loop. The transition re-keys all
          randomness it consumes — search-source draws, fault
          verdicts, retry jitter — per (epoch, phase, leader rank)
          from a substream key drawn at {!init}, and folds slice-local
          fault/reliability state back with slicing-invariant merges,
          so {!advance} is byte-identical at every [build_jobs]
          (graphs, metrics, history) — pinned by a qcheck law in the
          test suite and documented in DESIGN.md §11. *)
  pow : pow_control option;
      (** [None] (the default) keeps the closed-form [ceil (beta n)]
          adversary of §I-C and consumes no extra randomness — every
          digest of a [pow = None] run is byte-identical to the
          pre-controller code (the neutrality contract of
          DESIGN.md §12). [Some _] replaces the per-epoch bad
          head-count with controller-gated admission. *)
}

val default_config : n:int -> config
(** Paired Chord construction with {!Params.default}, uniform
    placement, no spam, and the [`Majority] (operational) failure
    notion. The paper's [`Conservative] notion — any group outside
    the strict good-group definition blocks a search — is an
    asymptotic device: at practical [n] the tolerance
    [(1 + delta) beta |G|] is below one member, so the strict
    definition rejects any group containing a single bad ID. What
    breaks searches physically is a lost good majority. *)

type t

val init : ?conditions:Sim.Conditions.t -> Prng.Rng.t -> config -> t
(** Build the initial graphs [G⁰] directly (correct wiring, honest
    member choice — the paper's initialisation assumption,
    Appendix X) over a freshly generated population.

    The fault plan of [?conditions] (default
    {!Sim.Conditions.none}) subjects every subsequent {!advance} to its
    environmental faults at the analytic layer's granularity: each
    {e individual} search inside the dual membership protocol is lost
    with the plan's {!Faults.Plan.wildcard_drop} rate (a dropped
    request or response wave — the two-graph redundancy absorbs
    single losses quadratically, mirroring the q_f² hijack
    argument), members inside an active crash window cannot be
    solicited, and neighbour links crossing an active partition fail
    (leaving the group confused, Lemma 8). Cut and crash windows are
    read in {e epoch indices}. The fault stream draws only from the
    plan's seed, so a zero-rate plan reproduces the no-faults run
    exactly; fault counters land in {!metrics}.

    The reliability policy of the same record arms every
    membership/neighbour search with a
    retry budget (see {!Reliability.Tracker.with_retries}): a lost
    wave is re-issued before the dual protocol gives up on it, and a
    neighbour link whose establishment still fails marks the group
    {e suspect} in the new graph rather than confused — the sender
    that exhausted a retry budget knows the link is undelivered, not
    misdelivered, so there is no route to poison
    ({!Group_graph.census}'s [suspect_] column, not [red]). The
    tracker draws only from the policy's seed; a zero-budget policy
    reproduces the no-reliability run exactly. *)

val advance : t -> unit
(** Run one epoch: mint a fresh population, construct the new
    graph(s) through the old ones, retire the old ones. The
    construction loop fans out over [config.build_jobs] domains with
    a deterministic rank-split; the result does not depend on
    [build_jobs] (see {!type-config}). *)

val epoch : t -> int
(** Number of completed [advance] calls. *)

val primary : t -> Group_graph.t
(** The current first group graph (searchable now). *)

val secondary : t -> Group_graph.t option

val old_pair : t -> Membership.old_pair
(** The current graphs packaged for request simulation. *)

val metrics : t -> Sim.Metrics.t
(** Cumulative message costs of all construction traffic. *)

val pow_last_window : t -> Pow.Controller.window option
(** The admission window that minted the {e current} population —
    window 0 right after {!init}, window [epoch t] thereafter.
    [None] iff [config.pow] is [None]. *)

val pow_controller : t -> Pow.Controller.t option
(** The live controller (cumulative ledgers, current price), when one
    is armed. *)

val history : t -> (int * Group_graph.census) list
(** Census of the primary graph after each epoch, oldest first
    (epoch 0 is the initial build). *)

val build_overlay : overlay_kind -> Idspace.Ring.t -> Overlay.Overlay_intf.t
(** The overlay factory used internally; exposed for experiments that
    need matching graphs. *)
