type t = { gen : Xoshiro.t; seeder : Splitmix.t }

let of_int64 seed =
  let seeder = Splitmix.create seed in
  { gen = Xoshiro.of_splitmix seeder; seeder }

let create seed = of_int64 (Int64.of_int seed)

let split t =
  let sub = Splitmix.split t.seeder in
  { gen = Xoshiro.of_splitmix sub; seeder = sub }

let copy t = { gen = Xoshiro.copy t.gen; seeder = Splitmix.copy t.seeder }

(* Keyed (SplitMix-style) substream derivation: a pure function of
   (base, key), so the stream attached to logical actor [key] does not
   depend on how many draws -- or substreams -- any other actor
   consumed. This is what makes rank-keyed fan-outs (the parallel
   epoch transition, per-newcomer join streams) byte-identical at any
   domain count: derivation replaces the inherently sequential
   {!split} chain. The double [mix] decorrelates adjacent keys. *)
let subkey base key = Splitmix.mix (Int64.logxor base (Splitmix.mix key))

let of_subkey base key = of_int64 (subkey base key)

let bits64 t = Xoshiro.next t.gen

(* Unbiased bounded sampling by rejection on the top bits. *)
let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  if bound land (bound - 1) = 0 then
    (* power of two: mask *)
    Int64.to_int (Int64.logand (bits64 t) (Int64.of_int (bound - 1)))
  else begin
    let bound64 = Int64.of_int bound in
    (* Draw 63-bit non-negative values and reject above the largest
       multiple of [bound] to avoid modulo bias. *)
    let max63 = Int64.max_int in
    let limit = Int64.sub max63 (Int64.rem max63 bound64) in
    let rec draw () =
      let v = Int64.shift_right_logical (bits64 t) 1 in
      if v >= limit then draw () else Int64.to_int (Int64.rem v bound64)
    in
    draw ()
  end

let int_in t lo hi =
  if lo > hi then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let float t =
  (* 53 top bits of a 64-bit draw, scaled by 2^-53. *)
  let bits = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float bits *. 0x1p-53

let bool t = Int64.logand (bits64 t) 1L = 1L

(* Short-circuit the certain edges so a degenerate rate consumes no
   draw: a p = 0 (or p >= 1) field in a composite schedule must not
   perturb the stream consumed by the live fields. *)
let bernoulli t p = if p <= 0. then false else if p >= 1. then true else float t < p

let exponential t rate =
  if rate <= 0. then invalid_arg "Rng.exponential: rate must be positive";
  -.log1p (-.float t) /. rate

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample_without_replacement t k n =
  if k < 0 || k > n then invalid_arg "Rng.sample_without_replacement";
  if 2 * k >= n then begin
    (* Dense case: partial Fisher–Yates over the full range. *)
    let a = Array.init n (fun i -> i) in
    for i = 0 to k - 1 do
      let j = int_in t i (n - 1) in
      let tmp = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- tmp
    done;
    Array.sub a 0 k
  end
  else begin
    (* Sparse case: rejection into a hash set. *)
    let seen = Hashtbl.create (2 * k) in
    let out = Array.make k 0 in
    let filled = ref 0 in
    while !filled < k do
      let v = int t n in
      if not (Hashtbl.mem seen v) then begin
        Hashtbl.add seen v ();
        out.(!filled) <- v;
        incr filled
      end
    done;
    out
  end
