type t = {
  jobs : int;
  mutex : Mutex.t;
  work_available : Condition.t;
  queue : (unit -> unit) Queue.t;
  mutable live : bool;
  mutable workers : unit Domain.t list;
}

let default_jobs () = Domain.recommended_domain_count ()

let jobs t = t.jobs

let rec worker_loop t =
  Mutex.lock t.mutex;
  while t.live && Queue.is_empty t.queue do
    Condition.wait t.work_available t.mutex
  done;
  if Queue.is_empty t.queue then (
    (* Only reachable when [live] went false: drain-then-exit. *)
    Mutex.unlock t.mutex)
  else begin
    let task = Queue.pop t.queue in
    Mutex.unlock t.mutex;
    task ();
    worker_loop t
  end

let create ~jobs =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let t =
    {
      jobs;
      mutex = Mutex.create ();
      work_available = Condition.create ();
      queue = Queue.create ();
      live = true;
      workers = [];
    }
  in
  t.workers <- List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let shutdown t =
  Mutex.lock t.mutex;
  t.live <- false;
  Condition.broadcast t.work_available;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.workers;
  t.workers <- []

let with_pool ~jobs f =
  let t = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* A batch: results land in a slot array, completion is counted with
   an atomic, and the earliest-index exception wins so that failure
   reporting does not depend on scheduling. *)
let map t f items =
  match items with
  | [] -> []
  | items when t.jobs = 1 || List.length items = 1 -> List.map f items
  | items ->
      let arr = Array.of_list items in
      let n = Array.length arr in
      let results = Array.make n None in
      let error = Atomic.make None in
      let remaining = Atomic.make n in
      let batch_mutex = Mutex.create () in
      let batch_done = Condition.create () in
      let run_one i =
        (try results.(i) <- Some (f arr.(i))
         with e ->
           let bt = Printexc.get_raw_backtrace () in
           let rec record () =
             match Atomic.get error with
             | Some (j, _, _) when j <= i -> ()
             | cur ->
                 if not (Atomic.compare_and_set error cur (Some (i, e, bt))) then
                   record ()
           in
           record ());
        if Atomic.fetch_and_add remaining (-1) = 1 then begin
          Mutex.lock batch_mutex;
          Condition.broadcast batch_done;
          Mutex.unlock batch_mutex
        end
      in
      Mutex.lock t.mutex;
      for i = 0 to n - 1 do
        Queue.push (fun () -> run_one i) t.queue
      done;
      Condition.broadcast t.work_available;
      Mutex.unlock t.mutex;
      (* The caller drains the queue alongside the workers... *)
      let rec help () =
        Mutex.lock t.mutex;
        let task = Queue.take_opt t.queue in
        Mutex.unlock t.mutex;
        match task with
        | Some task ->
            task ();
            help ()
        | None -> ()
      in
      help ();
      (* ...then waits for in-flight worker tasks. *)
      Mutex.lock batch_mutex;
      while Atomic.get remaining > 0 do
        Condition.wait batch_done batch_mutex
      done;
      Mutex.unlock batch_mutex;
      (match Atomic.get error with
      | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ());
      Array.to_list
        (Array.map
           (function Some v -> v | None -> assert false)
           results)

let map_slices ~jobs ~n f =
  let k = max 1 (min jobs n) in
  let slices = List.init k (fun i -> (i * n / k, (i + 1) * n / k)) in
  with_pool ~jobs:k (fun t -> map t (fun (lo, hi) -> f lo hi) slices)
