type item = {
  output : float;
  tag : int;
  from_adversary : bool;
}

type t = {
  cap : int;
  best : float array;  (* per-bin record; infinity when empty *)
  counters : int array;
  mutable stored : item list;
}

let create ~n ~t_steps ~b ~c0 =
  if n < 2 || t_steps < 2 then invalid_arg "Bins.create";
  let bins =
    max 1 (int_of_float (ceil (b *. log (float_of_int n *. float_of_int t_steps))))
  in
  let cap = max 1 (int_of_float (ceil (c0 *. log (float_of_int n)))) in
  { cap; best = Array.make bins infinity; counters = Array.make bins 0; stored = [] }

let bin_count t = Array.length t.best
let cap t = t.cap

let bin_of_output t output =
  if output <= 0. || output >= 1. then invalid_arg "Bins.bin_of_output";
  (* B_j = [2^-j, 2^-(j-1)), 1-indexed in the paper; 0-based here. *)
  let j = int_of_float (floor (-.log output /. log 2.)) in
  min j (bin_count t - 1)

let offer t item =
  let j = bin_of_output t item.output in
  if item.output < t.best.(j) && t.counters.(j) < t.cap then begin
    t.best.(j) <- item.output;
    t.counters.(j) <- t.counters.(j) + 1;
    t.stored <- item :: t.stored;
    true
  end
  else false

let min_item t =
  List.fold_left
    (fun best item ->
      match best with
      | Some b when b.output <= item.output -> best
      | _ -> Some item)
    None t.stored

let solution_set t ~size =
  let sorted = List.sort (fun a b -> compare a.output b.output) t.stored in
  List.filteri (fun i _ -> i < size) sorted
