(** A group: a leader ID and its solicited member set (paper §I-C).

    Every ID [w] leads its own group [G_w]; the members are the
    successors of the hash points [h(w, i)]. Groups carry their health
    classification:

    - {b Good}: size within bounds and bad fraction at most
      [(1 + delta) beta] — the paper's good-group definition, strong
      enough to survive an epoch of departures.
    - {b Weak}: more bad members than a good group allows, but still a
      strict good majority — majority filtering still works today, the
      churn margin is gone.
    - {b Hijacked}: no strict good majority — the adversary controls
      the group's outputs.

    The conservative analysis of §II treats anything not Good as red. *)

open Idspace
open Adversary

type health = Good | Weak | Hijacked

type t = private {
  leader : Point.t;
  members : Point.t array;
      (** Distinct member IDs, sorted by ring position. The leader is
          a member iff some hash point drew it. *)
  member_bad : bool array;
      (** Ground truth per member, fixed at formation time — members
          may come from a population (the previous epoch's) that
          outlives its own graph, so the group carries its own
          labels. *)
  bad_members : int;
  health : health;
}

val form :
  Params.t -> Population.t -> leader:Point.t -> members:Point.t list -> t
(** [form params pop ~leader ~members] deduplicates [members],
    counts bad ones against [pop]'s ground truth and classifies
    health. *)

val of_sorted_members :
  Params.t -> Population.t -> leader:Point.t -> members:Point.t array -> t
(** Allocation-lean {!form} for callers that already hold the member
    set sorted by ring position and duplicate-free (the group
    builder's scratch path). The array is owned by the group
    afterwards. *)

val size : t -> int
val good_members : t -> int

val has_good_majority : t -> bool
(** [true] for {!Good} and {!Weak}. *)

val contains : t -> Point.t -> bool

val member_is_bad : t -> int -> bool
(** Ground-truth label of the [i]-th member. *)

val drop_member : Params.t -> n_hint:int -> t -> Point.t -> t option
(** [drop_member params ~n_hint t m] removes member [m] (a no-op
    returning [t] unchanged when absent) and reclassifies health at
    system size [n_hint]. [None] when the group would become
    empty. *)

val pp : Format.formatter -> t -> unit
