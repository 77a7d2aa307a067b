let log_inverse_gap ring id =
  if Ring.cardinal ring < 2 then invalid_arg "Estimate.log_inverse_gap: need >= 2 IDs";
  let succ = Ring.strict_successor_exn ring id in
  let gap = float_of_int (Point.distance_cw id succ) *. 0x1p-62 in
  (* Adjacent distinct IDs are at least one unit apart, so gap > 0. *)
  -.log gap

let ln_n ring id = Float.max 1. (log_inverse_gap ring id)

let ln_ln_n ring id = Float.max 1. (log (ln_n ring id))

let group_size ~d ring id =
  let size = int_of_float (ceil (d *. ln_ln_n ring id)) in
  max 3 size

let exact_ln_ln n =
  if n < 3 then 1.
  else Float.max 1. (log (log (float_of_int n)))
