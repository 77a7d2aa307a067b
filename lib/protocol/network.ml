open Idspace

type t = {
  rng : Prng.Rng.t;
  latency : Sim.Latency.t;
  engine : Sim.Engine.t;
  handlers : (Point.t, t -> now:int -> Message.t -> unit) Hashtbl.t;
  conds : Sim.Conditions.active;
  mutable sent : int;
  mutable delivered : int;
}

let create ?(conditions = Sim.Conditions.none) ?metrics ?(size = 1024) rng ~latency =
  {
    rng;
    latency;
    engine = Sim.Engine.create ();
    (* [handlers] is only probed by key, never iterated; [?size] lets
       a caller expecting ~n registrations skip the rehash ladder. *)
    handlers = Hashtbl.create (max 16 size);
    conds = Sim.Conditions.activate ?metrics conditions;
    sent = 0;
    delivered = 0;
  }

let register t id handler = Hashtbl.replace t.handlers id handler

let deliver_after t ~delay ~to_ message =
  Sim.Engine.schedule_after t.engine ~delay (fun () ->
      match Hashtbl.find_opt t.handlers to_ with
      | Some handler ->
          t.delivered <- t.delivered + 1;
          handler t ~now:(Sim.Engine.now t.engine) message
      | None -> ())

(* Each attempt re-consults the injector at its own send time, so
   retries are independently faultable; a retransmission is a real
   message (it counts in [sent], which is what prices the reliability
   layer's overhead). The backoff wait stands in for the sender's ack
   timeout — in the simulation the verdict is known at once, so the
   timeout collapses into the scheduled retry delay. *)
let send ?src t ~to_ message =
  let { Sim.Conditions.injector; tracker } = t.conds in
  let rec attempt k =
    t.sent <- t.sent + 1;
    match
      Faults.Injector.decide injector ~now:(Sim.Engine.now t.engine) ~src ~dst:to_
    with
    | Faults.Injector.Drop ->
        if
          k < Reliability.Tracker.budget tracker
          && not (Reliability.Tracker.circuit_open tracker to_)
        then begin
          let backoff = Reliability.Tracker.next_backoff tracker ~attempt:k in
          Sim.Engine.schedule_after t.engine ~delay:backoff (fun () -> attempt (k + 1))
        end
        else Reliability.Tracker.record_exhausted tracker to_
    | Faults.Injector.Deliver { extra_delay; copies } ->
        Reliability.Tracker.record_success tracker to_;
        for _ = 1 to copies do
          let delay = Sim.Latency.sample t.rng t.latency + extra_delay in
          deliver_after t ~delay ~to_ message
        done
  in
  attempt 0

let run ?deadline t =
  Sim.Engine.run ?until:deadline t.engine;
  Faults.Injector.observe_heals t.conds.Sim.Conditions.injector
    ~now:(Sim.Engine.now t.engine)

let now t = Sim.Engine.now t.engine
let messages_sent t = t.sent
let messages_delivered t = t.delivered
