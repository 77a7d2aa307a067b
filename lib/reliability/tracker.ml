open Idspace

(* Slice-local per-destination circuit state for parallel transitions
   ({!fork}): instead of logging every ack (one per delivered search
   wave — millions at the stress tier), a fork keeps one O(1) summary
   per destination it actually touched. A destination's event history
   is a string over {S(uccess), E(xhausted)}; folding consecutive-
   failure counts over a concatenation of slices needs only, per
   slice: the E-run before the first S, whether an S occurred, the
   longest E-run after the first S, and the trailing E-run. Summaries
   compose associatively, so the merged master state is independent
   of where the slice boundaries fell — the jobs-invariance of the
   parallel epoch transition rests on this. *)
type summary = {
  mutable pre : int;  (* exhaustions before the first ack *)
  mutable had_s : bool;  (* any ack at all *)
  mutable max_mid : int;  (* longest exhaustion run after an ack *)
  mutable post : int;  (* trailing exhaustion run *)
}

type t = {
  active_ : bool;
  policy_ : Policy.t;
  mutable rng : Prng.Rng.t;
      (* Mutable so forks can be re-keyed per logical actor. *)
  metrics_ : Metrics_core.t;
  (* Consecutive budget exhaustions per destination;
     reset by any acked delivery to that destination. *)
  failures : (Point.t, int) Hashtbl.t;
  broken : (Point.t, unit) Hashtbl.t;
  frozen : t option;
      (* [Some parent] marks a fork: reads consult the parent's
         tables (frozen for the fork's lifetime), writes accumulate
         in [slice]. *)
  slice : (Point.t, summary) Hashtbl.t;
}

(* Tables a tracker never writes share these empty ones: all three of
   the disabled tracker's (every mutation guards on [active_]), a
   master's [slice], and a fork's [failures]/[broken] (a fork reads its
   parent's). *)
let no_failures : (Point.t, int) Hashtbl.t = Hashtbl.create 1
let no_broken : (Point.t, unit) Hashtbl.t = Hashtbl.create 1
let no_slice : (Point.t, summary) Hashtbl.t = Hashtbl.create 1

(* Never written, so one value serves every conditions-free run. *)
let disabled =
  {
    active_ = false;
    policy_ = Policy.none;
    rng = Prng.Rng.of_int64 0L;
    metrics_ = Metrics_core.create ();
    failures = no_failures;
    broken = no_broken;
    frozen = None;
    slice = no_slice;
  }

let create ?metrics (policy : Policy.t) =
  {
    active_ = not (Policy.is_zero policy);
    policy_ = policy;
    rng = Prng.Rng.of_int64 policy.Policy.seed;
    metrics_ = (match metrics with Some m -> m | None -> Metrics_core.create ());
    failures = Hashtbl.create 64;
    broken = Hashtbl.create 8;
    frozen = None;
    slice = no_slice;
  }

let active t = t.active_
let metrics t = t.metrics_
let budget t = if t.active_ then t.policy_.Policy.max_retries else 0

(* Forks read the parent's tables only: the per-destination circuit
   state is frozen for the duration of a parallel transition (a
   circuit opened by one slice takes effect from the merge on), so a
   destination's verdict cannot depend on which slice — i.e. which
   [jobs] value — processed it. *)
let circuit_open t dst =
  t.active_
  &&
  match t.frozen with
  | None -> Hashtbl.mem t.broken dst
  | Some parent -> Hashtbl.mem parent.broken dst

let consecutive_failures t dst =
  if not t.active_ then 0
  else
    let base = match t.frozen with None -> t | Some parent -> parent in
    Option.value ~default:0 (Hashtbl.find_opt base.failures dst)

let summary_cell t k =
  match Hashtbl.find_opt t.slice k with
  | Some s -> s
  | None ->
      let s = { pre = 0; had_s = false; max_mid = 0; post = 0 } in
      Hashtbl.add t.slice k s;
      s

let record_success t dst =
  if t.active_ then begin
    Metrics_core.incr t.metrics_ Metrics_core.retry_acked;
    match t.frozen with
    | None -> Hashtbl.remove t.failures dst
    | Some _ ->
        let s = summary_cell t dst in
        s.had_s <- true;
        s.post <- 0
  end

(* Table-and-circuit effect of one exhaustion, shared by the direct
   (master) path and the merge replay. Counts the circuit-open here —
   and only here — so an opening is accounted exactly once, at the
   point where it takes effect. *)
let apply_exhaustions t k count =
  if count > 0 then begin
    let n = count + Option.value ~default:0 (Hashtbl.find_opt t.failures k) in
    Hashtbl.replace t.failures k n;
    let threshold = t.policy_.Policy.circuit_threshold in
    if threshold > 0 && n >= threshold && not (Hashtbl.mem t.broken k) then begin
      Hashtbl.replace t.broken k ();
      Metrics_core.incr t.metrics_ Metrics_core.retry_circuit_opens
    end
  end

let record_exhausted t dst =
  if t.active_ then begin
    Metrics_core.incr t.metrics_ Metrics_core.retry_exhausted;
    match t.frozen with
    | None -> apply_exhaustions t dst 1
    | Some _ ->
        let s = summary_cell t dst in
        if not s.had_s then s.pre <- s.pre + 1
        else begin
          s.post <- s.post + 1;
          if s.post > s.max_mid then s.max_mid <- s.post
        end
  end

let next_backoff t ~attempt =
  let base = Policy.backoff_ms t.policy_ ~attempt in
  let jit = t.policy_.Policy.jitter_ms in
  let jitter = if jit = 0 then 0 else Prng.Rng.int_in t.rng 0 jit in
  let wait = base + jitter in
  Metrics_core.incr t.metrics_ Metrics_core.retry_attempted;
  Metrics_core.add t.metrics_ Metrics_core.retry_backoff_ms wait;
  wait

let with_retries t ~dst attempt =
  let rec go k =
    if attempt () then begin
      record_success t dst;
      true
    end
    else if k < budget t && not (circuit_open t dst) then begin
      ignore (next_backoff t ~attempt:k);
      go (k + 1)
    end
    else begin
      record_exhausted t dst;
      false
    end
  in
  go 0

let fork t ~metrics =
  if not t.active_ then t
  else
    {
      t with
      rng = Prng.Rng.of_int64 t.policy_.Policy.seed;
      metrics_ = metrics;
      failures = no_failures;
      broken = no_broken;
      frozen = Some t;
      slice = Hashtbl.create 16;
    }

let reseed t ~key =
  if t.active_ then
    t.rng <- Prng.Rng.of_subkey t.policy_.Policy.seed key

let merge_events ~into t =
  if t.active_ then
    (* Per-destination summaries are independent of each other, so
       table iteration order is immaterial; what matters is that the
       caller merges slices in rank order, folding each destination's
       event string left to right. *)
    Hashtbl.iter
      (fun k (s : summary) ->
        (* Exhaustions before the fork's first ack extend the run
           already standing in [into]. *)
        apply_exhaustions into k s.pre;
        if s.had_s then begin
          Hashtbl.remove into.failures k;
          (* Interior runs peaked at [max_mid], starting from zero. *)
          apply_exhaustions into k s.max_mid;
          (* The trailing run is what the next slice continues from. *)
          if s.post <> s.max_mid then begin
            Hashtbl.remove into.failures k;
            apply_exhaustions into k s.post
          end
        end)
      t.slice
