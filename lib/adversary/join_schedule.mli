(** Adversarial join schedules against PoW-gated epochs.

    Lemma 11 bounds the IDs a [β]-fraction adversary mints per epoch
    when it spends its full computational budget {e every} epoch at
    the paper's fixed price. The resource-competitive line (GMCom /
    ToGCom, PAPERS.md) is motivated by adversaries that do not: a
    burst attacker saves for [k] epochs and floods one, and a
    spend-probing attacker only buys when the current price is low,
    trying to bait the controller into staying cheap. This module
    names those strategies so [Pow.Controller] windows and the E26
    sweep can treat the strategy as data.

    A schedule answers two questions, both deterministically:
    {!epoch_budget} — evaluations available in a given epoch — and
    {!spends_at} — willingness to buy at a quoted price. *)

type t =
  | Steady  (** Spend the per-epoch budget every epoch (Lemma 11's
                adversary). *)
  | Bursty of { period : int; active : int; stockpile : int }
      (** Quiet for [period - active] epochs, then spend
          [stockpile × rate] in each of [active] epochs. [stockpile]
          models saved budget — §IV-A allows up to [3T/2] unspent
          evaluations in hand, i.e. [stockpile = 3] times
          {!Pow.Budget.adversary_budget}. *)
  | Probing of { num : int; den : int }
      (** Spend the steady budget, but only while the quoted price is
          at most [num/den] of the fixed price — a titration attack on
          adaptive controllers. *)

val steady : t

val bursty : ?stockpile:int -> period:int -> active:int -> unit -> t
(** [stockpile] defaults to 1 (no saved budget). Raises
    [Invalid_argument] unless [1 <= active <= period] and
    [stockpile >= 1]. *)

val probing : num:int -> den:int -> t
(** Raises [Invalid_argument] unless [num >= 0] and [den >= 1]. *)

val epoch_budget : t -> epoch:int -> rate:int -> int
(** Evaluations the adversary has for epoch [epoch], given the
    Lemma 11 steady rate [rate]
    ({!Pow.Budget.adversary_budget}). [Steady] and [Probing] return
    [rate]; [Bursty] returns [stockpile × rate] during the first
    [active] epochs of each [period]-epoch cycle and 0 otherwise. *)

val spends_at : t -> fixed:int -> price:int -> bool
(** Willingness to buy an ID at [price], where [fixed] is the paper's
    [T/2] reference price. [Probing] accepts iff
    [price/fixed <= num/den] (exact rational comparison); the others
    always accept. *)

val label : t -> string
(** Stable short name for tables and CLI output, e.g. ["steady"],
    ["bursty(1/10)"], ["probing(1/4)"]. *)

val pp : Format.formatter -> t -> unit
