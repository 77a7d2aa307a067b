(** Unified runtime conditions: what the environment does to a run.

    Every layer that simulates real deployments used to take the same
    pair of optional arguments — [?faults:Faults.Plan.t] describing
    injected drops, partitions and crashes, and
    [?reliability:Reliability.Policy.t] describing the retry and
    backoff budget that masks them. The pair travelled together
    through {!Protocol.Network}, {!Protocol.Secure_search},
    [Tinygroups.Membership]/[Epoch] and the experiment registry; this
    record collapses it into one value with {!none} as the benign
    default.

    Digest neutrality is by construction: a [None] plan and a [None]
    policy are the tested zero anchors (zero-rate plan ≡ no plan,
    zero-budget policy ≡ no policy), and {!none} carries exactly
    those, so threading [Conditions.none] through a run draws nothing
    and counts nothing. *)

type t = {
  faults : Faults.Plan.t option;
      (** What the environment breaks. [None] = fault-free. *)
  reliability : Reliability.Policy.t option;
      (** What the endpoints spend to mask it. [None] = no retries. *)
}

val none : t
(** Benign conditions: no faults, no retry budget. *)

val make :
  ?faults:Faults.Plan.t -> ?reliability:Reliability.Policy.t -> unit -> t

val describe : t -> string
(** Human-readable one-liner, e.g. for table notes. *)

(** {1 Activated conditions}

    A plan/policy pair is immutable configuration; running under it
    requires stateful instances — a {!Faults.Injector.t} drawing from
    the plan's own seed and a {!Reliability.Tracker.t} holding
    circuit state. [active] always carries both: an absent plan or
    policy activates to the component's disabled value
    ({!Faults.Injector.disabled}, {!Reliability.Tracker.disabled}),
    which never draws, never counts and never changes state, so a
    run under {!inert} is byte-identical to a run with no fault or
    retry layer at all. Every consumer calls the components directly;
    none branches on whether they are enabled. *)

type active = {
  injector : Faults.Injector.t;
  tracker : Reliability.Tracker.t;
}

val inert : active
(** The disabled injector and tracker; immutable and freely shared. *)

val activate : ?metrics:Metrics.t -> t -> active
(** Instantiate the stateful layers for one run: an absent component
    activates to its disabled value, a present one counts into
    [metrics] when given (a private table otherwise). *)

val transmit :
  active ->
  now:int ->
  src:Idspace.Point.t ->
  dst:Idspace.Point.t ->
  charge:(unit -> unit) ->
  bool
(** One point-to-point message under the conditions: each attempt
    calls [charge] (the sender pays for every copy it puts on the
    wire) and asks the injector for a verdict at [now]; a dropped
    attempt is retried within the tracker's budget
    ({!Reliability.Tracker.with_retries}). [true] when an attempt was
    delivered. Under {!inert} it is exactly one [charge] and [true]. *)

(** {1 Substreams}

    The parallel epoch transition forks one slice-local [active] per
    domain ({!fork}), re-keys it per logical actor as the slice walks
    its leaders ({!reseed}), and folds each slice back into the
    master in rank order ({!merge}) — see [Faults.Injector] and
    [Reliability.Tracker] for the per-component contracts that make
    the result independent of the slicing. Disabled components fork
    to themselves and ignore [reseed] and [merge]. *)

val fork : active -> metrics:Metrics.t -> active
(** Component-wise {!Faults.Injector.fork} /
    {!Reliability.Tracker.fork}. *)

val reseed : active -> key:int64 -> unit
(** Component-wise {!Faults.Injector.reseed} /
    {!Reliability.Tracker.reseed}. *)

val merge : into:active -> active -> unit
(** Component-wise {!Faults.Injector.merge_seen} /
    {!Reliability.Tracker.merge_events}. Call once per fork, in slice
    rank order; counters are merged separately
    ({!Metrics_core.merge}). *)
