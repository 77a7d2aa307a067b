(** The runtime of a {!Policy}: retry bookkeeping, backoff + jitter
    draws, and per-destination circuit breaking.

    A tracker owns a private {!Prng.Rng.t} created from
    [policy.seed] alone — exactly the {!Faults.Injector} discipline.
    It never reads the simulation's streams, so consulting it cannot
    perturb latency samples or trial draws: retry schedules are a
    pure function of the policy and the message sequence,
    byte-identical across [--jobs].

    A tracker built from a zero-budget policy (and the {!disabled}
    tracker) is inert: no draws, no counters, no state — which makes
    [?reliability] with budget 0 byte-identical to no reliability at
    every layer (the zero-retry anchor).

    Counters land in a {!Metrics_core.t} (the caller's, or a private
    one) under {!Metrics_core.retry_attempted} / [retry_exhausted] /
    [retry_backoff_ms] / [retry_circuit_opens] / [retry_acked]. *)

open Idspace

type t

val disabled : t
(** Never retries, never draws, never counts. What a run without a
    retry policy consults: an absent policy activates to it in
    [Sim.Conditions.activate]. *)

val create : ?metrics:Metrics_core.t -> Policy.t -> t
(** Retry counters are added into [metrics] when given, otherwise
    into a private table readable via {!metrics}. *)

val active : t -> bool
(** [false] for {!disabled} trackers and zero-budget policies: the
    tracker will never retry, draw, or count. *)

val metrics : t -> Metrics_core.t

val budget : t -> int
(** Extra attempts allowed after the first; 0 when inactive. *)

val circuit_open : t -> Point.t -> bool
(** Has this destination's circuit opened (too many consecutive
    exhausted budgets)? No retries are attempted there until an acked
    delivery... which cannot happen through retries, so an open
    circuit is sticky for the tracker's lifetime unless a first
    attempt succeeds. Always [false] when inactive. *)

val record_success : t -> Point.t -> unit
(** An attempt to [dst] was delivered (acked): reset its consecutive
    failure count and count the ack. *)

val record_exhausted : t -> Point.t -> unit
(** The budget for one message/search to [dst] ran out undelivered:
    count the timeout and advance the circuit breaker. *)

val next_backoff : t -> attempt:int -> int
(** The wait (ms) before retry [attempt] (0-based): the policy's
    deterministic backoff plus one seeded jitter draw. Accounts
    {!Metrics_core.retry_attempted} and adds the wait into
    {!Metrics_core.retry_backoff_ms}. Only call on an active
    tracker. *)

val with_retries : t -> dst:Point.t -> (unit -> bool) -> bool
(** [with_retries t ~dst attempt] runs [attempt] until it returns
    [true] or the budget (and circuit) permit no more tries, charging
    backoff between attempts; the synchronous shape used by the
    analytic layers, where each call of [attempt] re-consults the
    fault injector so every try is independently faultable. On an
    inactive tracker this is exactly one draw-free call of
    [attempt]. *)

val consecutive_failures : t -> Point.t -> int
(** Current consecutive-exhaustion count for [dst] (the circuit
    breaker's input); 0 when inactive or never exhausted. A fork
    reads its parent's (frozen) count. Exposed for the merge
    associativity tests. *)

(** {1 Substreams}

    The parallel epoch transition gives every ring slice a {!fork} of
    the transition's tracker. During the transition, per-destination
    circuit state is frozen: {!circuit_open} consults only the
    parent's tables, so a destination's verdict cannot depend on
    which slice — i.e. which [jobs] value — processed it. Successes
    and exhaustions accumulate in slice-local per-destination
    summaries (the run lengths of the S/E event string), which
    {!merge_events} folds back into the parent in rank order.
    Summaries compose associatively, so the merged failure counts,
    circuit openings, and [retry_circuit_opens] metric are exact and
    independent of where the slice boundaries fell; openings take
    effect from the merge on (i.e. next transition). Within a slice,
    {!reseed} re-keys the jitter PRNG per logical actor, making
    backoff draws a pure function of (policy seed, actor key). *)

val fork : t -> metrics:Metrics_core.t -> t
(** Slice-local view: frozen reads of the parent's circuit state,
    fresh event summaries, counters into [metrics], PRNG reset to the
    policy seed (callers {!reseed} per actor). Inactive trackers fork
    to themselves. *)

val reseed : t -> key:int64 -> unit
(** Re-key the private jitter stream to
    [Prng.Rng.of_subkey policy.seed key]. No-op when inactive. *)

val merge_events : into:t -> t -> unit
(** Replay a fork's per-destination summaries into [into] (normally
    the fork's parent): extend or reset consecutive-failure runs,
    open circuits that crossed the threshold, and count
    {!Metrics_core.retry_circuit_opens} for them — openings are
    accounted only here, where they take effect. Call once per fork,
    in slice rank order. [retry_acked] / [retry_exhausted] /
    backoff counters were already accounted into the fork's own
    metrics and are merged separately by the caller
    ({!Metrics_core.merge}). *)
