(** Secure search over a group graph (paper §II).

    A search for a key follows the path its leader would take in the
    input graph [H]; at every hop the whole current group forwards to
    the whole next group (all-to-all + majority filtering, message
    cost [|G_a| * |G_b|] per edge). The search's {e search path}
    terminates at the first red group: past that point the adversary
    controls the outcome, so the search has failed (§II-A).

    Two failure notions are supported:
    - [`Conservative] — any non-good or confused group on the path
      kills the search: the notion the analysis (Lemmas 1–4) uses.
    - [`Majority] — only groups without a good majority (or confused)
      kill it: the physical notion; weak groups still filter
      correctly today. *)

open Idspace

type failure_notion = [ `Conservative | `Majority ]

type outcome = {
  result : (Point.t, Point.t) Stdlib.result;
      (** [Ok responsible] on success; [Error leader] names the first
          red group on the path. *)
  group_path : Point.t list;
      (** Leaders traversed, up to and including the success endpoint
          or the first red group. *)
  messages : int;
      (** All-to-all messages spent along the traversed prefix. *)
}

type verdict = {
  ok : bool;  (** {!succeeded}: no blocking group on the path. *)
  messages : int;  (** As {!outcome}'s [messages]. *)
  hops : int;  (** Groups traversed: the length of [group_path]. *)
  stop : Point.t;
      (** Where the walk stopped: the responsible ID on success, the
          first blocking group otherwise. *)
}

val verdict :
  Group_graph.t ->
  failure:failure_notion ->
  src:Point.t ->
  key:Point.t ->
  verdict
(** {!search} without the path: the same walk, over the overlay's
    ranks, allocating a fixed few words whatever the path length.
    Callers that only need the outcome, the cost and the hop count
    use this. *)

val search :
  Group_graph.t ->
  failure:failure_notion ->
  src:Point.t ->
  key:Point.t ->
  outcome
(** [search g ~failure ~src ~key] routes from the group led by [src]
    toward [suc key]. [src] must be a leader (i.e. an ID of the
    population). Recursive forwarding: each group hands the request
    to the next (Appendix VI), costing [|G_a| * |G_b|] per edge.
    The walk follows the overlay's rank route and reads each hop's
    group by rank.
    @raise Not_found when [src] is not a leader. *)

val search_iterative :
  Group_graph.t ->
  failure:failure_notion ->
  src:Point.t ->
  key:Point.t ->
  outcome
(** The iterative variant of Appendix VI: the initiating group
    contacts every hop group directly and is told how to make partial
    progress, so each hop costs a round trip —
    [2 * |G_src| * |G_hop|] messages. Same path, same failure
    semantics, different cost profile (compared in experiment E15). *)

val succeeded : outcome -> bool

val expected_route_cost : Group_graph.t -> hops:int -> float
(** [hops * mean(|G|)^2]: the paper's [O(D |G|^2)] with measured
    constants. *)
