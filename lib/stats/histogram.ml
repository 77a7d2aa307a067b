type t = {
  lo : float;
  hi : float;
  counts : int array;
  mutable total : int;
}

let create ?(lo = 0.) ?(hi = 1.) ~bins () =
  if bins < 1 then invalid_arg "Histogram.create: bins >= 1";
  if lo >= hi then invalid_arg "Histogram.create: lo < hi required";
  { lo; hi; counts = Array.make bins 0; total = 0 }

let add t x =
  let bins = Array.length t.counts in
  let idx =
    int_of_float (float_of_int bins *. (x -. t.lo) /. (t.hi -. t.lo))
  in
  let idx = if idx < 0 then 0 else if idx >= bins then bins - 1 else idx in
  t.counts.(idx) <- t.counts.(idx) + 1;
  t.total <- t.total + 1

let count t i = t.counts.(i)
let total t = t.total
let bins t = Array.length t.counts

let chi_square_uniform t =
  let b = Array.length t.counts in
  if t.total = 0 then 0.
  else begin
    let expected = float_of_int t.total /. float_of_int b in
    Array.fold_left
      (fun acc c ->
        let d = float_of_int c -. expected in
        acc +. (d *. d /. expected))
      0. t.counts
  end

let chi_square_critical_99 ~dof =
  if dof < 1 then invalid_arg "Histogram.chi_square_critical_99";
  (* Wilson–Hilferty: chi2_q ~= dof * (1 - 2/(9 dof) + z_q sqrt(2/(9 dof)))^3,
     with z_0.99 = 2.326. *)
  let k = float_of_int dof in
  let a = 2. /. (9. *. k) in
  k *. ((1. -. a +. (2.326 *. sqrt a)) ** 3.)

let render t ~width =
  let b = Array.length t.counts in
  let peak = Array.fold_left max 1 t.counts in
  let buf = Buffer.create (b * (width + 16)) in
  Array.iteri
    (fun i c ->
      let lo = t.lo +. ((t.hi -. t.lo) *. float_of_int i /. float_of_int b) in
      let bar_len = c * width / peak in
      Buffer.add_string buf (Printf.sprintf "%8.4f | %s %d\n" lo (String.make bar_len '#') c))
    t.counts;
  Buffer.contents buf

module Log = struct
  (* Bucket i (1 <= i <= inner) covers [lo * r^(i-1), lo * r^i) with
     r = 10^(1/per_decade); bucket 0 is the underflow sink [<lo],
     bucket inner+1 the overflow sink [>= hi']. Geometric buckets
     bound the relative quantile error by r - 1, independent of the
     sample's magnitude — the property that lets one geometry span
     sub-millisecond cache hits and multi-second timeout spikes. *)
  type t = {
    lo : float;
    per_decade : int;
    inner : int;  (* bucket count between the two sinks *)
    counts : int array;
    mutable total : int;
    mutable min_seen : float;
    mutable max_seen : float;
  }

  let create ?(lo = 0.1) ?(hi = 1e7) ?(per_decade = 25) () =
    if lo <= 0. then invalid_arg "Histogram.Log.create: lo > 0 required";
    if hi <= lo then invalid_arg "Histogram.Log.create: hi > lo required";
    if per_decade < 1 then invalid_arg "Histogram.Log.create: per_decade >= 1";
    let inner =
      int_of_float (ceil (float_of_int per_decade *. log10 (hi /. lo)))
    in
    {
      lo;
      per_decade;
      inner;
      counts = Array.make (inner + 2) 0;
      total = 0;
      min_seen = infinity;
      max_seen = neg_infinity;
    }

  let same_geometry a b =
    a.lo = b.lo && a.per_decade = b.per_decade && a.inner = b.inner

  let bucket_of t x =
    if x < t.lo then 0
    else begin
      let i = 1 + int_of_float (float_of_int t.per_decade *. log10 (x /. t.lo)) in
      if i > t.inner then t.inner + 1 else i
    end

  (* Lower edge of bucket i; the underflow sink starts at 0. *)
  let edge t i =
    if i <= 0 then 0.
    else t.lo *. (10. ** (float_of_int (i - 1) /. float_of_int t.per_decade))

  let add t x =
    let x = if Float.is_nan x then 0. else Float.max x 0. in
    let i = bucket_of t x in
    t.counts.(i) <- t.counts.(i) + 1;
    t.total <- t.total + 1;
    if x < t.min_seen then t.min_seen <- x;
    if x > t.max_seen then t.max_seen <- x

  let total t = t.total

  let quantile t q =
    if t.total = 0 then invalid_arg "Histogram.Log.quantile: empty";
    if Float.is_nan q || q < 0. || q > 1. then
      invalid_arg "Histogram.Log.quantile: q in [0,1]";
    (* Target the same order statistic Descriptive.quantile
       interpolates around: 0-based rank q * (total - 1). The extreme
       ranks are tracked exactly, no interpolation. *)
    let rank = q *. float_of_int (t.total - 1) in
    if rank <= 0. then t.min_seen
    else if rank >= float_of_int (t.total - 1) then t.max_seen
    else begin
    let i = ref 0 and below = ref 0 in
    while float_of_int (!below + t.counts.(!i)) <= rank && !i < t.inner + 1 do
      below := !below + t.counts.(!i);
      incr i
    done;
    let i = !i in
    let c = t.counts.(i) in
    (* Interpolate within the bucket, clamped by the exact extremes
       so single-bucket distributions report exactly. *)
    let b_lo = Float.max (edge t i) t.min_seen in
    let b_hi = Float.min (edge t (i + 1)) t.max_seen in
    if c = 0 || b_hi <= b_lo then Float.min b_hi t.max_seen
    else begin
      let frac = (rank -. float_of_int !below +. 1.) /. float_of_int (c + 1) in
      let frac = Float.max 0. (Float.min 1. frac) in
      b_lo +. (frac *. (b_hi -. b_lo))
    end
    end

  let merge a b =
    if not (same_geometry a b) then
      invalid_arg "Histogram.Log.merge: differing bucket geometry";
    let t =
      {
        lo = a.lo;
        per_decade = a.per_decade;
        inner = a.inner;
        counts = Array.make (a.inner + 2) 0;
        total = a.total + b.total;
        min_seen = Float.min a.min_seen b.min_seen;
        max_seen = Float.max a.max_seen b.max_seen;
      }
    in
    Array.iteri (fun i c -> t.counts.(i) <- c + b.counts.(i)) a.counts;
    t

  let buckets t = t.inner + 2
end
