(** The secure inter-group communication primitive (paper §I):
    all-to-all transmission followed by majority filtering.

    When group [G1] sends a value to group [G2], every member of [G1]
    transmits to every member of [G2] and each good member of [G2]
    keeps the majority of what it received. Correctness needs only a
    good majority in [G1]; the message cost is [|G1| * |G2|] — the
    [Θ(|G|^2)] that makes group size matter. *)

type 'a result = {
  delivered : 'a option array;
      (** Per-recipient value after majority filtering; [None] when no
          value reached a strict majority (possible only when the
          sender group lacks a good majority). Indexed like the
          recipient array. *)
  messages : int;  (** Point-to-point messages sent. *)
}

val send :
  sender_good : bool array ->
  receiver_count : int ->
  value : 'a ->
  forge : (recipient:int -> 'a option) ->
  'a result
(** [send ~sender_good ~receiver_count ~value ~forge] models one
    group-to-group transfer: good senders ([sender_good.(i) = true])
    all send [value]; each bad sender sends [forge ~recipient] (or
    stays silent on [None]) to each recipient. Every recipient takes
    the strict-majority value of what arrived, counting the sender
    group's full size as the quorum denominator.

    Values are compared with polymorphic equality; use simple payload
    types. *)
