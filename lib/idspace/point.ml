type t = int

let mask = (1 lsl 62) - 1
let zero = 0

(* [Int64.to_int] keeps the low 63 bits, so masking after it reduces
   mod 2^62 exactly as masking the [int64] would. *)
let of_u62 v =
  if v < 0L then invalid_arg "Point.of_u62: negative value";
  Int64.to_int v land mask

let to_u62 = Int64.of_int

let of_int v =
  if v < 0 then invalid_arg "Point.of_int: negative value";
  v land mask

let of_float x =
  if x < 0. || x >= 1. then invalid_arg "Point.of_float: out of [0,1)";
  int_of_float (x *. 0x1p62)

let to_float p = float_of_int p *. 0x1p-62

let random rng = Int64.to_int (Prng.Rng.bits64 rng) land mask

let equal = Int.equal
let compare = Int.compare

let to_key p = p

let distance_cw a b = (b - a) land mask

let add_cw p d = (p + d) land mask

let in_cw_range ~from ~until p =
  from = until
  ||
  let d = distance_cw from p in
  d > 0 && d <= distance_cw from until

let pp fmt p = Format.fprintf fmt "%.6f" (to_float p)

let to_string p = Format.asprintf "%a" pp p
