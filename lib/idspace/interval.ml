type t = { from : Point.t; until : Point.t; full : bool }

let make ~from ~until = { from; until; full = Point.equal from until }

let full = { from = Point.zero; until = Point.zero; full = true }

let fraction t =
  if t.full then 1. else float_of_int (Point.distance_cw t.from t.until) *. 0x1p-62

let contains t p = if t.full then true else Point.in_cw_range ~from:t.from ~until:t.until p

let sample rng t =
  if t.full then Point.random rng
  else begin
    let len = Int64.of_int (Point.distance_cw t.from t.until) in
    (* Rejection-free: uniform offset in [1, len]. The draw has 63
       bits, one more than an [int] holds, so it stays [int64]. *)
    let bits = Int64.logand (Prng.Rng.bits64 rng) Int64.max_int in
    Point.add_cw t.from (1 + Int64.to_int (Int64.rem bits len))
  end

let pp fmt t =
  if t.full then Format.fprintf fmt "(full ring)"
  else Format.fprintf fmt "(%a, %a]" Point.pp t.from Point.pp t.until
