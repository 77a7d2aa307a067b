type t = { mutable remaining : int; mutable spent : int }

let create ~evals =
  if evals < 0 then invalid_arg "Budget.create: negative budget";
  { remaining = evals; spent = 0 }

let spend t k =
  if k < 0 then invalid_arg "Budget.spend: negative amount";
  if t.remaining >= k then begin
    t.remaining <- t.remaining - k;
    t.spent <- t.spent + k;
    true
  end
  else false

let remaining t = t.remaining
let spent t = t.spent

let good_id_budget ~epoch_steps = epoch_steps / 2

let adversary_rate ~beta =
  if beta < 0. || beta >= 1. then invalid_arg "Budget.adversary_rate: beta out of [0,1)";
  beta /. (1. -. beta)

let adversary_budget ~beta ~n ~epoch_steps =
  let good_total = float_of_int n *. float_of_int (good_id_budget ~epoch_steps) in
  int_of_float (adversary_rate ~beta *. good_total)
