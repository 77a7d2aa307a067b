type t = (string, int ref) Hashtbl.t

type snapshot = (string * int) list
(* Invariant: sorted by name, no duplicate names. *)

let create () = Hashtbl.create 32

let cell t name =
  match Hashtbl.find_opt t name with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.add t name r;
      r

let incr t name = Stdlib.incr (cell t name)
let add t name k = cell t name |> fun r -> r := !r + k
let get t name = match Hashtbl.find_opt t name with Some r -> !r | None -> 0

let merge dst src = Hashtbl.iter (fun name r -> add dst name !r) src

let snapshot t =
  Hashtbl.fold (fun name r acc -> (name, !r) :: acc) t []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Merge-walk of two sorted assoc lists. *)
let rec diff later earlier =
  match (later, earlier) with
  | [], [] -> []
  | (n, v) :: rest, [] -> (n, v) :: diff rest []
  | [], (n, v) :: rest -> (n, -v) :: diff [] rest
  | (ln, lv) :: lrest, (en, ev) :: erest ->
      let c = String.compare ln en in
      if c = 0 then (ln, lv - ev) :: diff lrest erest
      else if c < 0 then (ln, lv) :: diff lrest earlier
      else (en, -ev) :: diff later erest

let found s name = match List.assoc_opt name s with Some v -> v | None -> 0

let to_list s = s

let pp_snapshot fmt s =
  List.iter (fun (name, v) -> Format.fprintf fmt "%-24s %d@." name v) s

let pp fmt t = pp_snapshot fmt (snapshot t)

let fault_injected = "fault.injected"
let fault_suppressed = "fault.suppressed"
let fault_healed = "fault.healed"
let retry_attempted = "retry.attempted"
let retry_exhausted = "retry.exhausted"
let retry_backoff_ms = "retry.backoff_ms"
let retry_circuit_opens = "retry.circuit_opens"
let retry_acked = "retry.acked"
let msg_membership = "msg.membership"
let pow_hash_evals = "pow.hash_evals"
let pow_good_evals = "pow.good_evals"
let pow_bad_evals = "pow.bad_evals"
let pow_bad_admitted = "pow.bad_admitted"
let kv_route_cache_hit = "kv.route_cache_hit"
let kv_route_cache_miss = "kv.route_cache_miss"
let kv_route_cache_invalidated = "kv.route_cache_invalidated"
let msg_agreement = "msg.agreement"
let ba_bits_sent = "ba.bits_sent"
let brb_delivered = "brb.delivered"
let group_lone_leader = "group.lone_leader"
let overlay_rebuilds = "overlay.rebuilds"
