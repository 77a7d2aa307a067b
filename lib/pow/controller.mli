(** Epoch-difficulty controllers: fixed τ vs resource-competitive.

    The source paper fixes the puzzle threshold τ so that minting one
    ID costs [T/2] hash evaluations in expectation (§IV-A) — good
    participants pay that price {e every} epoch, attack or no attack.
    The same authors' follow-on line — {e Proof of Work Without All
    the Work} (GMCom) and {e Resource-Competitive Sybil Defenses}
    (ToGCom), both in PAPERS.md — re-prices the entrance cost from
    the {e observed} join rate so that the good side's cumulative
    spend is bounded by a function of the adversary's cumulative
    spend, collapsing to a small floor when nobody is attacking.

    This module implements both as values of one [t], so the epoch
    machinery ({!Tinygroups.Epoch} via its [pow] knob, and
    {!Tinygroups.Dynamic} join admission) can swap the paper's
    fixed-difficulty epochs for the competitive controller without
    touching any other code path.

    {2 The cost model (DESIGN.md §12)}

    As everywhere in [lib/pow], computation is counted, not burned:
    one puzzle attempt = one hash evaluation, and an ID minted at
    entrance price [p] costs [p] evaluations in expectation (τ is
    what varies; the oracle composition of {!Identity} is unchanged).
    The controller works in this expectation fluid model — spends are
    exact integers, every quantity is a pure function of its inputs,
    and no PRNG stream is consumed — which is what lets the default
    ([Fixed]-free) epoch path stay byte-identical.

    {2 The competitive mechanism}

    A generation window is cut into [subrounds] re-pricing rounds.
    Per round the controller quotes one entrance price to every
    joiner (good re-joins and adversarial entrants alike) and then
    adjusts it from the observed join volume:

    - volume above [(1 + surge_tolerance)] times the expected good
      re-join rate doubles the price (clamped to
      [ceiling_factor × T/2]);
    - volume at or below the expected rate halves it (clamped to the
      floor [T/2 / 2^floor_shift]);
    - the narrow band in between holds it.

    Admission is throttled GMCom-style: an ID that was live in the
    previous window holds a re-entry ticket and is always processed
    (good re-joins are never crowded out — their only cost is the
    current price), while {e new} entrants share a per-round open
    capacity of [admission_slack × n / subrounds]. The ticket/slack
    split is what bounds a burst: however large the attacker's
    stockpiled budget, a window admits at most
    [previous window's bad count + admission_slack × n] new bad IDs,
    and the price doubling makes even that many cost a constant
    factor of the fixed scheme's bill (measured in E26).

    Worst-case accounting: within a round the adversary is served
    first (it floods), so the reported good spend and latency are the
    pessimistic side of every tie. *)

type kind = Fixed | Competitive

type config = {
  kind : kind;
  epoch_steps : int;  (** [T]; the fixed entrance price is [T/2]. *)
  floor_shift : int;
      (** Competitive floor: prices never drop below
          [T/2 / 2^floor_shift]. *)
  ceiling_factor : int;
      (** Competitive cap: prices never exceed
          [ceiling_factor × T/2]. *)
  subrounds : int;  (** Re-pricing rounds per generation window. *)
  admission_slack : float;
      (** Un-ticketed (newcomer) admission capacity per window as a
          fraction of the expected good population. *)
  surge_tolerance : float;
      (** Join-volume band above the expected re-join rate that holds
          the price instead of doubling it. *)
}

val fixed : epoch_steps:int -> config
(** The paper's scheme: price [T/2] forever (wrapping
    {!Budget.good_id_budget}), no admission throttle — the per-window
    adversarial ID count is exactly Lemma 11's [budget / (T/2)]. *)

val competitive :
  ?floor_shift:int ->
  ?ceiling_factor:int ->
  ?subrounds:int ->
  ?admission_slack:float ->
  ?surge_tolerance:float ->
  epoch_steps:int ->
  unit ->
  config
(** Defaults: [floor_shift = 4] (floor [T/32]), [ceiling_factor = 4],
    [subrounds = 8], [admission_slack = 0.25],
    [surge_tolerance = 0.1]. Raises [Invalid_argument] unless
    [epoch_steps >= 2], [floor_shift >= 0] with a positive floor,
    [ceiling_factor >= 1], [subrounds >= 1], [admission_slack > 0]
    and [surge_tolerance >= 0]. *)

type t

val create : config -> n:int -> t
(** A controller for a system expecting [n] good re-joins per
    generation window. The competitive price starts at the fixed
    [T/2] (a conservative cold start) and decays to the floor within
    the first quiet window. *)

val config : t -> config
val kind : t -> kind

val fixed_difficulty : t -> int
(** [T/2] — the paper's per-ID cost ({!Budget.good_id_budget}). *)

val floor_difficulty : t -> int
(** The competitive floor ([fixed_difficulty] for a [Fixed]
    controller). *)

type window = {
  opening_price : int;
  closing_price : int;
  admitted_bad : int;  (** Adversarial IDs that paid and got in. *)
  good_spend : int;  (** Evaluations the [n] good re-joins paid. *)
  bad_spend : int;  (** Evaluations the adversary paid for admits. *)
  declined_spend : int;
      (** Adversarial budget left unspent: throttled by the admission
          caps, refused by its own [spends_at] titration, or simply
          smaller than one entrance fee. *)
  mean_good_latency : float;
      (** Mean steps from a good participant's window start to its
          minted ID — the entrance price at one evaluation per step
          (§IV-A's clock). *)
}

val run_window :
  t -> good:int -> bad_budget:int -> ?spends_at:(price:int -> bool) -> unit -> window
(** Account one generation window: [good] re-joining good
    participants against an adversary holding [bad_budget]
    evaluations for the window. [spends_at] is the adversary's
    titration rule (default: spend at any price) — the hook
    {!Adversary.Join_schedule} implements. Updates the carried price
    and re-entry tickets and accumulates the cumulative ledgers. *)

val windows : t -> int
(** Completed {!run_window} calls. *)

val cumulative_good_spend : t -> int
val cumulative_bad_spend : t -> int
val cumulative_declined_spend : t -> int
(** Lifetime ledgers over every window — the quantities the
    resource-competitive bound [good ≤ windows × n × floor + O(bad)]
    relates (DESIGN.md §12). *)

val pp : Format.formatter -> t -> unit
