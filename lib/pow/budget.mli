(** The computational-step model of proof-of-work.

    The paper's adversary owns a [beta] fraction of the {e total
    computational power} (§I-C); what the analysis actually counts is
    hash evaluations per epoch. We therefore simulate computation as
    budgets of hash evaluations — burning real CPU would only slow
    the experiments without changing a single measured distribution
    (see DESIGN.md, substitutions). *)

type t

val create : evals:int -> t
(** A budget of [evals] hash evaluations. *)

val spend : t -> int -> bool
(** [spend t k] consumes [k] evaluations if available, else leaves
    the budget unchanged and returns [false]. *)

val remaining : t -> int
val spent : t -> int

val good_id_budget : epoch_steps:int -> int
(** Evaluations one good participant performs in one generation
    window: [T/2] (it starts at the epoch's halfway point, one
    evaluation per step — §IV-A). *)

val adversary_budget : beta:float -> n:int -> epoch_steps:int -> int
(** Total adversarial evaluations over one generation window: the
    adversary holds a [beta] share of total power, so
    [beta/(1-beta)] times the aggregate good budget of [n] good
    participants. *)
