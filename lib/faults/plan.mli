(** Composable, seeded fault plans.

    The message layer ({!Protocol.Network}) and the epoch protocol
    ({!Tinygroups.Epoch}) model only the {e strategic} adversary:
    Byzantine members lie or stay silent, but the transport itself
    never misbehaves. A [Plan.t] describes the {e environmental}
    adversary on top — per-link message drops, duplicates, extra
    delays and reorderings, link- and group-level partitions with
    heal times, and crash–recover of individual members.

    A plan is a pure value. All randomness of its execution comes
    from the plan's own [seed] (see {!Injector}), never from the
    streams driving the simulation proper, so

    - the same plan produces the same fault schedule at every
      [--jobs] value (the simulation streams are derived by
      {!Parallel.Fanout} and the fault stream is derived from the
      plan alone), and
    - a plan whose rates are all zero and that has no cuts or crashes
      is byte-identical in effect to running with no plan at all.

    Failing runs can therefore be replayed exactly by re-creating the
    plan with the same seed ({!with_seed}).

    {b Clocks.} Times in cuts and crashes are in the consumer's
    clock: engine milliseconds when the plan drives a
    {!Protocol.Network}, epoch indices when it drives a
    {!Tinygroups.Epoch}. *)

open Idspace

type rates = {
  drop : float;  (** P(message silently dropped). *)
  duplicate : float;  (** P(message delivered twice). *)
  delay : float;  (** P(extra latency added). *)
  delay_ms : int * int;
      (** Inclusive uniform range of the extra latency when it fires. *)
  reorder : float;
      (** P(message deferred behind later traffic): the copy is held
          back a uniform [1..reorder_ms] extra, so messages sent
          after it can arrive first. *)
  reorder_ms : int;  (** Deferral window of a reorder. *)
}

type rule = {
  src : Point.t option;  (** [None] matches any sender. *)
  dst : Point.t option;  (** [None] matches any recipient. *)
  rates : rates;
}

type cut = {
  side_a : Point.t list;
  side_b : Point.t list;
      (** Empty means "everyone not on side A". Messages crossing
          between the sides are dropped while the cut is active. *)
  from_time : int;
  heal_time : int option;  (** [None]: the cut never heals. *)
}

type crash = {
  id : Point.t;
  down_from : int;
  recover_at : int option;  (** [None]: the member never recovers. *)
}

type t = private {
  seed : int64;  (** Sole source of the fault schedule's randomness. *)
  rules : rule list;
  cuts : cut list;
  crashes : crash list;
}

val none : t
(** The empty plan: no rules, cuts or crashes; seed 0. *)

val uniform :
  ?drop:float ->
  ?duplicate:float ->
  ?delay:float ->
  ?delay_ms:int * int ->
  ?reorder:float ->
  ?reorder_ms:int ->
  unit ->
  t
(** A single wildcard rule applying the given rates to every link;
    omitted rates are 0, [delay_ms] defaults to [(10, 100)],
    [reorder_ms] to 200. Raises [Invalid_argument] on a rate outside
    [0, 1] or an invalid range. *)

val partition : side_a:Point.t list -> ?side_b:Point.t list -> from_time:int -> ?heal_time:int -> unit -> t
(** A cut between the two sides (group-level partitions are cuts
    whose sides list whole groups' members). Requires
    [from_time >= 0] and, when given, [heal_time >= from_time]. *)

val crash_of : id:Point.t -> down_from:int -> ?recover_at:int -> unit -> t
(** Crash–recover of one member: while down it neither sends nor
    receives ({!Injector.decide}) and cannot be solicited into new
    groups ({!Injector.crashed}). *)

val ( ++ ) : t -> t -> t
(** Union of the two plans' rules, cuts and crashes. The left
    operand's seed wins. *)

val with_seed : t -> int64 -> t

val is_zero : t -> bool
(** No cuts, no crashes, and every rule's rates all zero: executing
    this plan cannot inject anything. *)

val wildcard_drop : t -> float
(** The combined drop probability of the wildcard (match-anything)
    rules: [1 - prod (1 - drop_i)]. The analytic layer uses it as the
    per-search loss rate. *)

val describe : t -> string
(** One-line summary for table notes and CLI output. *)
