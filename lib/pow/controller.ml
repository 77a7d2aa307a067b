type kind = Fixed | Competitive

type config = {
  kind : kind;
  epoch_steps : int;
  floor_shift : int;
  ceiling_factor : int;
  subrounds : int;
  admission_slack : float;
  surge_tolerance : float;
}

let validate c =
  if c.epoch_steps < 2 then
    invalid_arg "Controller: epoch_steps must be >= 2";
  if c.floor_shift < 0 then invalid_arg "Controller: floor_shift must be >= 0";
  if Budget.good_id_budget ~epoch_steps:c.epoch_steps asr c.floor_shift < 1
  then invalid_arg "Controller: floor_shift leaves no positive floor price";
  if c.ceiling_factor < 1 then
    invalid_arg "Controller: ceiling_factor must be >= 1";
  if c.subrounds < 1 then invalid_arg "Controller: subrounds must be >= 1";
  if not (c.admission_slack > 0.) then
    invalid_arg "Controller: admission_slack must be > 0";
  if c.surge_tolerance < 0. then
    invalid_arg "Controller: surge_tolerance must be >= 0"

let fixed ~epoch_steps =
  let c =
    {
      kind = Fixed;
      epoch_steps;
      floor_shift = 0;
      ceiling_factor = 1;
      subrounds = 1;
      admission_slack = 1.;
      surge_tolerance = 0.;
    }
  in
  validate c;
  c

let competitive ?(floor_shift = 4) ?(ceiling_factor = 4) ?(subrounds = 8)
    ?(admission_slack = 0.25) ?(surge_tolerance = 0.1) ~epoch_steps () =
  let c =
    {
      kind = Competitive;
      epoch_steps;
      floor_shift;
      ceiling_factor;
      subrounds;
      admission_slack;
      surge_tolerance;
    }
  in
  validate c;
  c

type t = {
  cfg : config;
  n : int;
  mutable price : int;
  mutable prev_bad : int;  (* re-entry tickets carried into next window *)
  mutable windows_ : int;
  mutable good_ledger : int;
  mutable bad_ledger : int;
  mutable declined_ledger : int;
}

let create cfg ~n =
  validate cfg;
  if n < 1 then invalid_arg "Controller.create: n must be >= 1";
  {
    cfg;
    n;
    price = Budget.good_id_budget ~epoch_steps:cfg.epoch_steps;
    prev_bad = 0;
    windows_ = 0;
    good_ledger = 0;
    bad_ledger = 0;
    declined_ledger = 0;
  }

let config t = t.cfg
let kind t = t.cfg.kind
let fixed_difficulty t = Budget.good_id_budget ~epoch_steps:t.cfg.epoch_steps

let floor_difficulty t =
  match t.cfg.kind with
  | Fixed -> fixed_difficulty t
  | Competitive -> max 1 (fixed_difficulty t asr t.cfg.floor_shift)

let ceiling_difficulty t =
  match t.cfg.kind with
  | Fixed -> fixed_difficulty t
  | Competitive -> t.cfg.ceiling_factor * fixed_difficulty t

type window = {
  opening_price : int;
  closing_price : int;
  admitted_bad : int;
  good_spend : int;
  bad_spend : int;
  declined_spend : int;
  mean_good_latency : float;
}

(* ceil (x * num / den) over non-negative ints, without float drift. *)
let ceil_div_mul x num den = ((x * num) + den - 1) / den

let run_fixed_window t ~good ~bad_budget ~spends_at =
  let price = fixed_difficulty t in
  let admitted_bad, bad_spend =
    if spends_at ~price then
      let k = bad_budget / price in
      (k, k * price)
    else (0, 0)
  in
  let good_spend = good * price in
  {
    opening_price = price;
    closing_price = price;
    admitted_bad;
    good_spend;
    bad_spend;
    declined_spend = bad_budget - bad_spend;
    mean_good_latency = (if good = 0 then 0. else float_of_int price);
  }

let run_competitive_window t ~good ~bad_budget ~spends_at =
  let r_total = t.cfg.subrounds in
  let floor_p = floor_difficulty t and ceil_p = ceiling_difficulty t in
  (* Per-round open capacity for entrants holding no re-entry ticket. *)
  let open_cap =
    max 1
      (ceil_div_mul 1
         (int_of_float (ceil (t.cfg.admission_slack *. float_of_int t.n)))
         r_total)
  in
  let opening_price = t.price in
  let budget = ref bad_budget in
  let admitted_bad = ref 0 in
  let bad_spend = ref 0 in
  let good_spend = ref 0 in
  let good_latency = ref 0 in
  for r = 0 to r_total - 1 do
    let price = t.price in
    (* This round's slice of the fluid flows: cumulative-difference
       slicing so the slices sum exactly to the totals. *)
    let good_r = (good * (r + 1) / r_total) - (good * r / r_total) in
    let ticket_r =
      (t.prev_bad * (r + 1) / r_total) - (t.prev_bad * r / r_total)
    in
    (* Adversary first (worst case): ticketed re-entries plus the open
       newcomer slack, gated by its own willingness and budget. *)
    let bad_r =
      if spends_at ~price then
        min (!budget / price) (ticket_r + open_cap)
      else 0
    in
    budget := !budget - (bad_r * price);
    admitted_bad := !admitted_bad + bad_r;
    bad_spend := !bad_spend + (bad_r * price);
    (* Good re-joins hold tickets: always served, at this round's price. *)
    good_spend := !good_spend + (good_r * price);
    good_latency := !good_latency + (good_r * price);
    (* Re-price from observed volume vs the expected good re-join rate. *)
    let joins = bad_r + good_r in
    let expected = max 1 good_r in
    let surge = ceil_div_mul expected (100 + int_of_float (t.cfg.surge_tolerance *. 100.)) 100 in
    if joins > surge then t.price <- min ceil_p (t.price * 2)
    else if joins <= good_r then t.price <- max floor_p (t.price / 2)
  done;
  t.prev_bad <- !admitted_bad;
  {
    opening_price;
    closing_price = t.price;
    admitted_bad = !admitted_bad;
    good_spend = !good_spend;
    bad_spend = !bad_spend;
    declined_spend = bad_budget - !bad_spend;
    mean_good_latency =
      (if good = 0 then 0. else float_of_int !good_latency /. float_of_int good);
  }

let run_window t ~good ~bad_budget ?(spends_at = fun ~price:_ -> true) () =
  if good < 0 || bad_budget < 0 then
    invalid_arg "Controller.run_window: negative flow";
  let w =
    match t.cfg.kind with
    | Fixed -> run_fixed_window t ~good ~bad_budget ~spends_at
    | Competitive -> run_competitive_window t ~good ~bad_budget ~spends_at
  in
  t.windows_ <- t.windows_ + 1;
  t.good_ledger <- t.good_ledger + w.good_spend;
  t.bad_ledger <- t.bad_ledger + w.bad_spend;
  t.declined_ledger <- t.declined_ledger + w.declined_spend;
  w

let windows t = t.windows_
let cumulative_good_spend t = t.good_ledger
let cumulative_bad_spend t = t.bad_ledger
let cumulative_declined_spend t = t.declined_ledger

let pp fmt t =
  Format.fprintf fmt
    "controller %s price=%d floor=%d ceil=%d windows=%d good=%d bad=%d \
     declined=%d"
    (match t.cfg.kind with Fixed -> "fixed" | Competitive -> "competitive")
    t.price (floor_difficulty t) (ceiling_difficulty t) t.windows_
    t.good_ledger t.bad_ledger t.declined_ledger
