type t = {
  queue : (unit -> unit) Heap.t;
  mutable clock : int;
  mutable next_seq : int;
}

let create () = { queue = Heap.create (); clock = 0; next_seq = 0 }

let now t = t.clock

let schedule t ~at f =
  if at < t.clock then invalid_arg "Engine.schedule: event in the past";
  Heap.push t.queue ~time:at ~seq:t.next_seq f;
  t.next_seq <- t.next_seq + 1

let schedule_after t ~delay f =
  if delay < 0 then invalid_arg "Engine.schedule_after: negative delay";
  schedule t ~at:(t.clock + delay) f

let run ?until t =
  let continue = ref true in
  while !continue do
    match Heap.peek t.queue with
    | None -> continue := false
    | Some (time, _, _) -> (
        match until with
        | Some limit when time > limit ->
            continue := false;
            t.clock <- limit
        | _ -> (
            match Heap.pop t.queue with
            | Some (time, _, f) ->
                t.clock <- time;
                f ()
            | None -> assert false))
  done
