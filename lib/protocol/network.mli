(** The transport: point-to-point delivery with sampled latency over
    the discrete-event engine.

    Deterministic given the seed; counts every message. Recipients
    are registered handlers keyed by ID.

    The fault plan of a {!Sim.Conditions.t} turns the transport
    adversarial: messages can
    be dropped, duplicated, delayed or reordered per link, partitions
    sever sets of IDs until they heal, and crashed IDs neither send
    nor receive. The fault schedule draws only from the plan's own
    seed (see {!Faults.Injector}), so enabling a zero-rate plan
    leaves a run byte-identical and the schedule is invariant under
    the experiment layer's [--jobs] fan-out.

    The reliability policy of the same record makes the transport
    fight back: a send
    whose attempt the injector drops is retransmitted after the
    policy's backoff (the simulated ack timeout), each attempt
    re-consulting the injector so retries are independently
    faultable, until delivery, budget exhaustion, or the
    destination's circuit opening. Retransmissions count as sent
    messages — they are the layer's measurable overhead. The retry
    schedule draws only from the policy's seed (see
    {!Reliability.Tracker}), with the same zero anchor: a zero-budget
    policy is byte-identical to none. *)

open Idspace

type t

val create :
  ?conditions:Sim.Conditions.t ->
  ?metrics:Sim.Metrics.t ->
  ?size:int ->
  Prng.Rng.t ->
  latency:Sim.Latency.t ->
  t
(** [?conditions] (default {!Sim.Conditions.none}: no fault
    injection, no retries) is activated once, here
    ({!Sim.Conditions.activate}), and every {!send} consults the
    resulting injector and tracker. [?metrics] is where their fault
    and retry counters ({!Sim.Metrics.fault_injected},
    {!Sim.Metrics.retry_attempted} etc.) accumulate; without it they
    count into private tables. [?size] (default 1024) hints the
    expected number of registered handlers; purely a capacity hint,
    never observable in behaviour. *)

val register : t -> Point.t -> (t -> now:int -> Message.t -> unit) -> unit
(** Install the handler run at each delivery to this ID.
    Re-registering replaces the handler. *)

val send : ?src:Point.t -> t -> to_:Point.t -> Message.t -> unit
(** Enqueue a delivery after a sampled latency; silently dropped if
    the recipient never registered (departed nodes). [?src] names the
    sending ID so per-link fault rules, partitions and sender crashes
    apply; omit it for synthetic off-ring senders (clients). *)

val run : ?deadline:int -> t -> unit
(** Dispatch until quiescence or past [deadline] (engine steps =
    milliseconds of the latency model). Heal events reached by the
    end of the run are folded into the fault counters. *)

val now : t -> int
val messages_sent : t -> int
