type t = { epoch_steps : int }

let create ~epoch_steps =
  if epoch_steps < 2 then invalid_arg "Epoch_clock.create";
  { epoch_steps }

let epoch_steps t = t.epoch_steps

let epoch_of_step t step =
  if step < 0 then invalid_arg "Epoch_clock.epoch_of_step";
  step / t.epoch_steps

let epoch_start t epoch = epoch * t.epoch_steps
let halfway t epoch = epoch_start t epoch + (t.epoch_steps / 2)

type id_state = Active | Passive | Expired

let id_state _t ~minted_for ~at_epoch =
  if at_epoch = minted_for then Active
  else if at_epoch = minted_for + 1 then Passive
  else Expired

let lemma11_bound ~beta ~n ~eps =
  int_of_float (ceil ((1. +. eps) *. beta *. float_of_int n))
