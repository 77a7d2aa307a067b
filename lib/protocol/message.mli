(** Wire messages of the member-level secure-search protocol.

    Everything else in the repository simulates secure routing
    analytically (count the exchanges, consult the census); this
    protocol stack actually {e runs} it: real per-member messages,
    real quorum counting, real Byzantine silence — over the
    discrete-event engine. The search protocol is the recursive
    scheme of Appendix VI operated group-to-group:

    - the client fires a {!Search_request} at every member of the
      source group;
    - each good member of a traversed group forwards the request to
      every member of the next group {e once it has heard identical
      copies from a strict majority of the previous group} (that
      quorum {e is} the majority filtering of §I);
    - the responsible group's members send {!Search_reply} straight
      back to the client, who majority-filters them. *)

open Idspace

type search_request = {
  qid : int;  (** Query identity (dedup key). *)
  key : Point.t;  (** The point being searched for. *)
  stage : Point.t;  (** Leader of the group this copy addresses. *)
  client : Point.t;  (** Where the final group sends its replies. *)
  sender_member : Point.t option;
      (** The individual forwarding member (distinct-sender counting);
          [None] when the client itself injects the query. *)
  sender_group : Point.t option;
      (** Leader of the forwarding group; [None] when the client
          itself injects the query. *)
  sender_count : int;  (** Size of the forwarding group (quorum base). *)
}

type search_reply = {
  qid : int;
  responsible : Point.t;  (** The answering group's claim. *)
  responder_count : int;  (** Size of the answering group. *)
}

type t =
  | Search_request of search_request
  | Search_reply of search_reply

val pp : Format.formatter -> t -> unit
