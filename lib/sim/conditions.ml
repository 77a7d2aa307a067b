type t = {
  faults : Faults.Plan.t option;
  reliability : Reliability.Policy.t option;
}

let none = { faults = None; reliability = None }
let make ?faults ?reliability () = { faults; reliability }

let describe t =
  match (t.faults, t.reliability) with
  | None, None -> "benign"
  | Some p, None -> Faults.Plan.describe p
  | None, Some r -> Reliability.Policy.describe r
  | Some p, Some r ->
      Printf.sprintf "%s; %s" (Faults.Plan.describe p)
        (Reliability.Policy.describe r)

type active = {
  injector : Faults.Injector.t;
  tracker : Reliability.Tracker.t;
}

let inert =
  { injector = Faults.Injector.disabled; tracker = Reliability.Tracker.disabled }

let activate ?metrics t =
  {
    injector =
      (match t.faults with
      | None -> Faults.Injector.disabled
      | Some p -> Faults.Injector.create ?metrics p);
    tracker =
      (match t.reliability with
      | None -> Reliability.Tracker.disabled
      | Some p -> Reliability.Tracker.create ?metrics p);
  }

let transmit a ~now ~src ~dst ~charge =
  Reliability.Tracker.with_retries a.tracker ~dst (fun () ->
      charge ();
      match Faults.Injector.decide a.injector ~now ~src:(Some src) ~dst with
      | Faults.Injector.Deliver _ -> true
      | Faults.Injector.Drop -> false)

let fork a ~metrics =
  {
    injector = Faults.Injector.fork a.injector ~metrics;
    tracker = Reliability.Tracker.fork a.tracker ~metrics;
  }

let reseed a ~key =
  Faults.Injector.reseed a.injector ~key;
  Reliability.Tracker.reseed a.tracker ~key

let merge ~into a =
  Faults.Injector.merge_seen ~into:into.injector a.injector;
  Reliability.Tracker.merge_events ~into:into.tracker a.tracker
