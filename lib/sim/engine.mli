(** A deterministic discrete-event engine.

    Time is a non-negative integer counter of "steps", the unit the
    paper uses for epochs ([T] steps per epoch, §III). Events
    scheduled for the same step run in scheduling order, so a run is a
    pure function of the seed. Used by the random-string propagation
    protocol (§IV-B) and the churn driver. *)

type t

val create : unit -> t

val now : t -> int
(** Current simulation step. *)

val schedule : t -> at:int -> (unit -> unit) -> unit
(** [schedule t ~at f] runs [f] at step [at]; requires
    [at >= now t]. *)

val schedule_after : t -> delay:int -> (unit -> unit) -> unit
(** [schedule_after t ~delay f] runs [f] at [now t + delay];
    [delay >= 0]. *)

val run : ?until:int -> t -> unit
(** Dispatch events in order until the queue empties, or past step
    [until] when given (events at step [until] still run). *)
