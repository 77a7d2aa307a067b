open Idspace

type rates = {
  drop : float;
  duplicate : float;
  delay : float;
  delay_ms : int * int;
  reorder : float;
  reorder_ms : int;
}

type rule = { src : Point.t option; dst : Point.t option; rates : rates }

type cut = {
  side_a : Point.t list;
  side_b : Point.t list;
  from_time : int;
  heal_time : int option;
}

type crash = { id : Point.t; down_from : int; recover_at : int option }

type t = { seed : int64; rules : rule list; cuts : cut list; crashes : crash list }

let none = { seed = 0L; rules = []; cuts = []; crashes = [] }

let check_rate name p =
  if not (p >= 0. && p <= 1.) then
    invalid_arg (Printf.sprintf "Faults.Plan: %s must be in [0, 1]" name)

let make_rates ?(drop = 0.) ?(duplicate = 0.) ?(delay = 0.) ?(delay_ms = (10, 100))
    ?(reorder = 0.) ?(reorder_ms = 200) () =
  check_rate "drop" drop;
  check_rate "duplicate" duplicate;
  check_rate "delay" delay;
  check_rate "reorder" reorder;
  let lo, hi = delay_ms in
  if lo < 0 || hi < lo then invalid_arg "Faults.Plan: delay_ms needs 0 <= lo <= hi";
  if reorder_ms < 1 then invalid_arg "Faults.Plan: reorder_ms must be >= 1";
  { drop; duplicate; delay; delay_ms; reorder; reorder_ms }

let uniform ?drop ?duplicate ?delay ?delay_ms ?reorder ?reorder_ms () =
  let rates = make_rates ?drop ?duplicate ?delay ?delay_ms ?reorder ?reorder_ms () in
  { none with rules = [ { src = None; dst = None; rates } ] }

let partition ~side_a ?(side_b = []) ~from_time ?heal_time () =
  if side_a = [] then invalid_arg "Faults.Plan.partition: side_a must be non-empty";
  if from_time < 0 then invalid_arg "Faults.Plan.partition: from_time must be >= 0";
  (match heal_time with
  | Some h when h < from_time ->
      invalid_arg "Faults.Plan.partition: heal_time must be >= from_time"
  | _ -> ());
  { none with cuts = [ { side_a; side_b; from_time; heal_time } ] }

let crash_of ~id ~down_from ?recover_at () =
  if down_from < 0 then invalid_arg "Faults.Plan.crash_of: down_from must be >= 0";
  (match recover_at with
  | Some r when r < down_from ->
      invalid_arg "Faults.Plan.crash_of: recover_at must be >= down_from"
  | _ -> ());
  { none with crashes = [ { id; down_from; recover_at } ] }

let compose a b =
  {
    seed = a.seed;
    rules = a.rules @ b.rules;
    cuts = a.cuts @ b.cuts;
    crashes = a.crashes @ b.crashes;
  }

let ( ++ ) = compose

let with_seed t seed = { t with seed }

let rates_zero r =
  r.drop = 0. && r.duplicate = 0. && r.delay = 0. && r.reorder = 0.

let is_zero t =
  t.cuts = [] && t.crashes = [] && List.for_all (fun r -> rates_zero r.rates) t.rules

let wildcard_drop t =
  let survive =
    List.fold_left
      (fun acc r ->
        match (r.src, r.dst) with
        | None, None -> acc *. (1. -. r.rates.drop)
        | _ -> acc)
      1. t.rules
  in
  1. -. survive

let describe t =
  if is_zero t then "no faults"
  else begin
    let parts = ref [] in
    let push s = parts := s :: !parts in
    if t.crashes <> [] then push (Printf.sprintf "%d crash(es)" (List.length t.crashes));
    if t.cuts <> [] then push (Printf.sprintf "%d cut(s)" (List.length t.cuts));
    List.iter
      (fun r ->
        let scope =
          match (r.src, r.dst) with None, None -> "all links" | _ -> "one link"
        in
        let rr = r.rates in
        if not (rates_zero rr) then
          push
            (Printf.sprintf "%s: drop %.2f dup %.2f delay %.2f reorder %.2f" scope
               rr.drop rr.duplicate rr.delay rr.reorder))
      t.rules;
    Printf.sprintf "seed %Ld; %s" t.seed (String.concat "; " !parts)
  end
