(** Named counters for cost accounting.

    The paper's claims are cost claims — message complexity of group
    communication, secure routing and string propagation, and per-ID
    state. Components increment named counters on a mutable {!t};
    harnesses read measured phases out as immutable {!snapshot}s and
    subtract them with {!diff} (rather than resetting a shared
    instance between phases, which loses history and cannot tolerate
    concurrent phases).

    A [t] must stay confined to one domain. Parallel trials give each
    trial its own [t] and fold the results back into the parent's
    with {!merge} — see [Experiments.Common.run_trials]. *)

type t

val create : unit -> t

val incr : t -> string -> unit
val add : t -> string -> int -> unit

val get : t -> string -> int
(** 0 for never-touched counters. *)

val merge : t -> t -> unit
(** [merge dst src] adds every counter of [src] into [dst], leaving
    [src] untouched. *)

(** {1 Immutable views} *)

type snapshot
(** Counter values frozen at one instant. *)

val snapshot : t -> snapshot

val of_snapshot : snapshot -> t
(** A fresh mutable accumulator starting from frozen values. *)

val diff : snapshot -> snapshot -> snapshot
(** [diff later earlier] is the per-counter difference — the cost of
    the phase between the two snapshots. Counters absent from one
    side count as 0. *)

val found : snapshot -> string -> int
(** Value of one counter in a snapshot; 0 when absent. *)

val to_list : snapshot -> (string * int) list
(** All counters, sorted by name. *)

val pp_snapshot : Format.formatter -> snapshot -> unit

val pp : Format.formatter -> t -> unit
(** [pp fmt t] is [pp_snapshot fmt (snapshot t)]. *)

(** Conventional counter names used across the libraries. *)

val fault_injected : string
(** Fault events injected by a {!Faults} rate rule: drops,
    duplicates, extra delays and reorders, one per event. *)

val fault_suppressed : string
(** Deliveries suppressed by the fault layer — rule drops plus
    messages crossing an active partition or touching a crashed
    member, and solicitations lost to crashed members. *)

val fault_healed : string
(** Partitions healed and crashed members recovered, as observed by
    the fault injector. *)

val retry_attempted : string
(** Retransmissions scheduled by the reliability layer (one per
    backoff wait, i.e. per attempt after the first). *)

val retry_exhausted : string
(** Messages or search waves whose whole retry budget ran out
    undelivered — the reliability layer's timeouts. *)

val retry_backoff_ms : string
(** Total backoff-plus-jitter milliseconds charged across all
    retries. *)

val retry_circuit_opens : string
(** Destinations whose circuit the reliability layer opened after
    repeated budget exhaustions. *)

val retry_acked : string
(** Deliveries the reliability layer observed succeed (its ack
    count), budgeted or not. *)

val msg_group_comm : string
(** Intra-group all-to-all messages (group communication, cost (i)). *)

val msg_routing : string
(** Inter-group all-to-all messages during secure routing
    (cost (ii)). *)

val msg_membership : string
(** Messages spent making and verifying group-membership and
    neighbour requests (§III-A). *)

val msg_propagation : string
(** Messages of the random-string propagation protocol
    (Lemma 12). *)

val pow_hash_evals : string
(** Hash evaluations spent on proof-of-work puzzles (§IV-A). *)

val pow_good_evals : string
(** Hash evaluations charged to {e good} participants by a PoW
    difficulty controller ([Pow.Controller]): the quantity the
    resource-competitive line of work (GMCom/ToGCom) minimises. *)

val pow_bad_evals : string
(** Hash evaluations the adversary paid for identifiers a difficulty
    controller actually admitted (its entrance-cost bill). *)

val pow_bad_admitted : string
(** Adversarial identifiers admitted through controller-gated join
    admission (the realised side of Lemma 11's count bound). *)

val kv_route_cache_hit : string
(** Store operations whose home group was resolved from the
    epoch-indexed route cache, skipping the secure-routing walk. *)

val kv_route_cache_miss : string
(** Store operations that had to run the full secure-routing search
    (cold key, cache disabled, or post-[rehome] invalidation). *)

val kv_route_cache_invalidated : string
(** Cache generations discarded — one per [rehome], since the cache
    is only valid for the store's current epoch graph. *)

val msg_agreement : string
(** Point-to-point messages of the scalable agreement sublayer
    (BRB send/echo/ready traffic and sampler-BA polls), including
    retransmissions charged by the reliability layer. *)

val ba_bits_sent : string
(** Protocol bits sent by the agreement sublayer — the currency of
    King–Saia's [~O(sqrt n)]-bit bound. Binary BA messages carry one
    bit; BRB messages carry a tag plus the payload word. *)

val brb_delivered : string
(** BRB deliver events (application-layer handoffs); at most one per
    correct process per broadcast by the no-duplication property. *)

val group_lone_leader : string
(** Groups whose leader lost every member solicitation and stands
    alone (the degenerate [members = \[w\]] fallback in
    [Epoch.build_next] and the join protocol). A lone-leader group is
    surely not good, so stress runs watch this the way they watch
    [fault_suppressed]. *)

val overlay_rebuilds : string
(** Full overlay reconstructions (a fresh neighbour table over a
    changed ring). Batched membership changes must pay exactly one per batch
    — asserted at the unit level for [Dynamic.join_many] /
    [depart_many]. *)
