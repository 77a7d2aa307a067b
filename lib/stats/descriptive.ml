type summary = {
  n : int;
  mean : float;
  std : float;
  min : float;
  max : float;
  median : float;
  p95 : float;
  p99 : float;
}

let mean xs =
  if Array.length xs = 0 then invalid_arg "Descriptive.mean: empty sample";
  Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

let variance xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Descriptive.variance: empty sample";
  if n = 1 then 0.
  else begin
    let m = mean xs in
    let acc = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0. xs in
    acc /. float_of_int (n - 1)
  end

let std xs = sqrt (variance xs)

let quantile xs q =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Descriptive.quantile: empty sample";
  if q < 0. || q > 1. then invalid_arg "Descriptive.quantile: q out of [0,1]";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let pos = q *. float_of_int (n - 1) in
  let lo = int_of_float (floor pos) and hi = int_of_float (ceil pos) in
  if lo = hi then sorted.(lo)
  else begin
    let frac = pos -. float_of_int lo in
    (sorted.(lo) *. (1. -. frac)) +. (sorted.(hi) *. frac)
  end

let summarize xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Descriptive.summarize: empty sample";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let q p =
    let pos = p *. float_of_int (n - 1) in
    let lo = int_of_float (floor pos) and hi = int_of_float (ceil pos) in
    if lo = hi then sorted.(lo)
    else begin
      let frac = pos -. float_of_int lo in
      (sorted.(lo) *. (1. -. frac)) +. (sorted.(hi) *. frac)
    end
  in
  {
    n;
    mean = mean xs;
    std = std xs;
    min = sorted.(0);
    max = sorted.(n - 1);
    median = q 0.5;
    p95 = q 0.95;
    p99 = q 0.99;
  }
