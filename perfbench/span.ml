(* Timing of calls into the libraries, taken from outside them.

   Every call made through [call] is timed with two monotonic clock
   reads, traced or not: the end-to-end metrics are built from these
   times. When [tracing] is set, the call is also
   kept as a span record — name, start, end and the span that was open
   when it began — in growable int arrays, and written out only after
   the run ends, so recording costs a few array stores per call. *)

let now () = Int64.to_int (Monotonic_clock.now ())

type id = int

let max_ids = 64
let names = Array.make max_ids ""
let registered = ref 0

let register name =
  if !registered = max_ids then invalid_arg "Span.register: too many names";
  let id = !registered in
  names.(id) <- name;
  incr registered;
  id

(* Per-name accumulators, always on. *)
let total_ns = Array.make max_ids 0
let last_ns = Array.make max_ids 0

let tracing = ref false

type log = {
  mutable len : int;
  mutable name : int array;
  mutable parent : int array;
  mutable start : int array;
  mutable stop : int array;
}

let log = { len = 0; name = [||]; parent = [||]; start = [||]; stop = [||] }
let open_span = ref (-1)

let grow () =
  let cap = max 1024 (2 * Array.length log.name) in
  let extend a =
    let b = Array.make cap 0 in
    Array.blit a 0 b 0 log.len;
    b
  in
  log.name <- extend log.name;
  log.parent <- extend log.parent;
  log.start <- extend log.start;
  log.stop <- extend log.stop

let account id d =
  total_ns.(id) <- total_ns.(id) + d;
  last_ns.(id) <- d

let call id f =
  if !tracing then begin
    if log.len = Array.length log.name then grow ();
    let i = log.len in
    let parent = !open_span in
    log.len <- i + 1;
    log.name.(i) <- id;
    log.parent.(i) <- parent;
    open_span := i;
    let t0 = now () in
    let v = f () in
    let t1 = now () in
    log.start.(i) <- t0;
    log.stop.(i) <- t1;
    open_span := parent;
    account id (t1 - t0);
    v
  end
  else begin
    let t0 = now () in
    let v = f () in
    account id (now () - t0);
    v
  end

let reset_totals () =
  Array.fill total_ns 0 max_ids 0;
  Array.fill last_ns 0 max_ids 0

let clear_log () =
  log.len <- 0;
  open_span := -1

let seconds ns = float_of_int ns /. 1e9
let total_s id = seconds total_ns.(id)

(* --- reading the log ----------------------------------------------- *)

let durations id =
  let acc = ref [] in
  for i = log.len - 1 downto 0 do
    if log.name.(i) = id then acc := (log.stop.(i) - log.start.(i)) :: !acc
  done;
  Array.of_list !acc

(* The 1-based nearest rank of quantile [q] in a sample of [n]. *)
let rank n q = max 1 (min n (int_of_float (ceil (q *. float_of_int n))))

(* Nearest-rank percentiles of the durations of [id]; 0 when none. *)
let duration_percentiles id qs =
  let d = durations id in
  Array.sort compare d;
  List.map (fun q -> if d = [||] then 0 else d.(rank (Array.length d) q - 1)) qs

(* The last record of [id] (the root span of the traced phase). *)
let last_record id =
  let rec go i = if i < 0 then None else if log.name.(i) = id then Some i else go (i - 1) in
  go (log.len - 1)

(* Share of the root span's duration covered by its direct children,
   the top-level spans. *)
let top_level_share root =
  match last_record root with
  | None -> 0.
  | Some r ->
      let covered = ref 0 in
      for i = 0 to log.len - 1 do
        if log.parent.(i) = r then covered := !covered + (log.stop.(i) - log.start.(i))
      done;
      let d = log.stop.(r) - log.start.(r) in
      if d <= 0 then 0. else float_of_int !covered /. float_of_int d

let records () = log.len

(* One CSV line per span; times in ns from the first span's start. *)
let write path =
  let oc = open_out path in
  let t0 = if log.len = 0 then 0 else log.start.(0) in
  output_string oc "id,parent,name,start_ns,end_ns\n";
  for i = 0 to log.len - 1 do
    Printf.fprintf oc "%d,%d,%s,%d,%d\n" i log.parent.(i) names.(log.name.(i))
      (log.start.(i) - t0) (log.stop.(i) - t0)
  done;
  close_out oc
