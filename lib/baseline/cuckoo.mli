(** The cuckoo rule (Awerbuch–Scheideler [8]–[10]) and the commensal
    variant, as simulated by Sen and Freedman [47].

    This is the state of the art the paper positions itself against:
    groups must be {e fairly large} ([|G| = 64] at [n = 8192] for
    [beta ~ 0.002] to survive 10^5 join/leave events). Reproducing
    that finding (experiment E11) motivates the whole tiny-groups
    agenda: even the best [O(log n)]-style constructions need group
    sizes far above [ln ln n] under adaptive join-leave attack.

    Model: [n] nodes on the unit ring, a [beta] fraction adversarial.
    The ring is partitioned into aligned {e quorum regions} of
    expected occupancy [group_size]. On a join at a u.a.r. point
    [x], the {e cuckoo rule} evicts every node of the (smaller)
    [k]-region containing [x] to fresh u.a.r. positions; the
    {e commensal} variant evicts only [j] random nodes of [x]'s
    quorum region. The adversary plays the join-leave attack:
    each round it departs one of its nodes and rejoins. A region is
    {e compromised} when its bad fraction reaches [threshold]. *)

type rule =
  | Cuckoo
      (** Evict the whole k-region of the join point. *)
  | Commensal of int
      (** Evict this many random nodes of the joined quorum region. *)

type config = {
  n : int;
  beta : float;
  group_size : int;  (** Expected nodes per quorum region. *)
  k : float;  (** Expected occupancy of the eviction k-region. *)
  rule : rule;
  threshold : float;  (** Bad fraction that compromises a region. *)
  benign_churn : float;
      (** Probability that each attack round is accompanied by a
          {e good} node also leaving and rejoining — background churn
          on top of the attack. *)
}

val default_config : n:int -> beta:float -> group_size:int -> config
(** [k = 4.], [Cuckoo], majority threshold (0.5), no benign churn. *)

type outcome = {
  rounds_survived : int;
  compromised : bool;
  max_bad_fraction : float;
      (** Largest per-region bad fraction ever observed. *)
}

val simulate : Prng.Rng.t -> config -> max_rounds:int -> outcome
(** Run the join-leave attack for up to [max_rounds] rejoins or until
    some quorum region is compromised. *)
