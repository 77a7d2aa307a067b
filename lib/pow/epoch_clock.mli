(** Epoch arithmetic (§III, §IV-A).

    Time is divided into epochs of [T] steps, indexed from 0. ID
    generation for epoch [j+1] starts at the halfway point of epoch
    [j]; an ID minted with epoch [j]'s random string is active
    through epoch [j+1] and passive (forwarding only) through epoch
    [j+2]. *)

type t

val create : epoch_steps:int -> t
val epoch_steps : t -> int

val epoch_of_step : t -> int -> int
(** Which epoch a step falls in. *)

val epoch_start : t -> int -> int
val halfway : t -> int -> int
(** First step of the generation window inside the given epoch. *)

type id_state = Active | Passive | Expired

val id_state : t -> minted_for:int -> at_epoch:int -> id_state
(** The lifecycle of an ID minted for epoch [minted_for], observed
    during epoch [at_epoch]. Before its epoch an ID is also
    [Expired] (not yet usable). *)

val lemma11_bound : beta:float -> n:int -> eps:float -> int
(** [(1 + eps) beta n]: the per-window cap on adversarial IDs
    (Lemma 11). *)
