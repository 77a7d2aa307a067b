(** A replicated, versioned key-value store over the group graph —
    the paper's motivating applications made concrete (§I-A:
    "distributed databases, name services, and content-sharing
    networks").

    Each record's key hashes to a point of the ring; the {e group} of
    the responsible ID holds one replica per member. Writes travel by
    secure search and carry a last-writer-wins version; reads travel
    by secure search, collect every member's vote and accept only a
    value backed by a {e strict majority} of the group — so corrupt
    replicas (bad members always forge, claiming the newest version)
    are outvoted, and stale good replicas are detected and repaired in
    place. When reads find no majority (replicas lost to churn), the
    group runs an internal sync — possible exactly while it retains a
    good majority — and the read retries.

    Operations are issued through {!client} sessions ({!connect}),
    which pin the issuing identity once instead of threading it
    through every call. Routing goes through a per-epoch {e route
    cache} (name → home group): within an epoch the graph is
    immutable, so a cached home can never go stale; {!rehome} starts
    the next epoch's store with an empty cache, which is the whole
    invalidation story. A cache hit replaces the multi-hop secure walk
    with one direct contact of the home group.

    {!rehome} migrates records onto a new epoch's graph, replica by
    replica. ε-robustness then says what the paper promises: all but
    an ε-fraction of records stay readable, measured by
    {!coverage}. *)

open Idspace

type t

val create :
  ?metrics:Sim.Metrics.t ->
  ?route_cache:bool ->
  system_key:string ->
  Tinygroups.Group_graph.t ->
  t
(** An empty store over a group graph. [system_key] fixes the public
    key-hashing function. [route_cache] (default [true]) enables the
    per-epoch name→home cache; cache traffic is counted in [metrics]
    under [Sim.Metrics.kv_route_cache_hit]/[_miss]/[_invalidated]. *)

val graph : t -> Tinygroups.Group_graph.t

val epoch_index : t -> int
(** How many {!rehome}s led to this store (0 for a fresh store). *)

val metrics : t -> Sim.Metrics.t
(** The metrics sink passed to {!create} (or a private one),
    carried across {!rehome}. *)

val record_count : t -> int
(** Live (non-deleted) records. *)

val names : t -> string list
(** Live record names, unordered. *)

val key_of : t -> string -> Point.t
(** The ring position a name hashes to. *)

val home : t -> string -> Point.t
(** Leader of the group responsible for the name right now. *)

val version_of : t -> string -> int option
(** Current version of a live record. *)

type op_stats = {
  hops : int;  (** Groups traversed to reach the home (1 on a hit). *)
  route_cached : bool;
}

val last_op_stats : t -> op_stats
(** Routing facts of the most recent put/get/delete on this store —
    for latency models that charge per hop. Blocked operations report
    [{ hops = 0; route_cached = false }]. *)

type write_result =
  | Stored of { version : int; replicas : int; messages : int }
      (** [replicas] = good members now holding the write. *)
  | Write_blocked of { red_group : Point.t }

type read_result =
  | Found of { value : string; version : int; repaired : int; messages : int }
      (** [repaired] = stale/missing good replicas fixed by this read
          (read repair). *)
  | Recovered of { value : string; version : int; repaired : int; messages : int }
      (** No majority was live; the home group's internal sync
          restored one from the surviving good replicas. *)
  | Corrupted of { messages : int }
      (** No honest copy survives or no good majority: the record is
          the adversary's now. *)
  | Not_found of { messages : int }
  | Read_blocked of { red_group : Point.t }

(** {2 Client sessions} *)

type client
(** A client identity bound to a store. Sessions survive epochs:
    {!retarget} repoints one at the rehomed store. *)

val connect : t -> id:Point.t -> client
(** [id] must be an ID of the graph's population. *)

val client_id : client -> Point.t
val client_store : client -> t

val retarget : client -> t -> unit
(** Repoint the session at a new store (typically the {!rehome} of
    its current one). *)

val put : client -> name:string -> value:string -> write_result
(** Upsert: route from the client's group to the home group and
    replicate to every good member with a bumped version. *)

val get : client -> name:string -> read_result

val delete : client -> name:string -> write_result
(** Write a tombstone (versioned like any write): subsequent reads
    return [Not_found]. *)

val degrade : Prng.Rng.t -> t -> loss_rate:float -> unit
(** Knock out each good replica of each record independently with the
    given probability — simulated crash/expiry damage for exercising
    read repair and recovery. *)

val rehome : t -> Tinygroups.Group_graph.t -> t
(** Migrate every record onto a (new epoch's) group graph: the old
    replica set's surviving majority hands each record to the new
    home group's members. Records whose old group lost its majority
    (or all good copies) migrate as adversary-controlled. The new
    store starts with an empty route cache (counted as one
    [kv_route_cache_invalidated]) and [epoch_index] bumped. *)

val coverage : Prng.Rng.t -> t -> samples:int -> float
(** Fraction of [samples] random live records that a random good
    client reads back intact right now ({!Found} or {!Recovered}) —
    the measured [(1 - eps)] of ε-robustness. Requires a non-empty
    store. *)
