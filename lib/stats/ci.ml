type interval = { lo : float; hi : float }

let wilson ~successes ~trials ~z =
  if trials <= 0 then invalid_arg "Ci.wilson: trials > 0 required";
  if successes < 0 || successes > trials then invalid_arg "Ci.wilson: successes out of range";
  let n = float_of_int trials in
  let p = float_of_int successes /. n in
  let z2 = z *. z in
  let denom = 1. +. (z2 /. n) in
  let centre = p +. (z2 /. (2. *. n)) in
  let spread = z *. sqrt ((p *. (1. -. p) /. n) +. (z2 /. (4. *. n *. n))) in
  { lo = Float.max 0. ((centre -. spread) /. denom); hi = Float.min 1. ((centre +. spread) /. denom) }

let wilson95 ~successes ~trials = wilson ~successes ~trials ~z:1.96

let pp fmt { lo; hi } = Format.fprintf fmt "[%.5f, %.5f]" lo hi
