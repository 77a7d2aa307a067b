let binomial_tail_ge ~n ~p ~k =
  if n < 0 || k < 0 then invalid_arg "Bounds.binomial_tail_ge";
  if k > n then 0.
  else if p <= 0. then if k = 0 then 1. else 0.
  else if p >= 1. then 1.
  else begin
    (* Sum pmf terms in log space for numeric stability. *)
    let log_p = log p and log_q = log (1. -. p) in
    let log_choose =
      let lgamma_cache = Array.make (n + 2) 0. in
      for i = 2 to n + 1 do
        lgamma_cache.(i) <- lgamma_cache.(i - 1) +. log (float_of_int (i - 1))
      done;
      fun j -> lgamma_cache.(n + 1) -. lgamma_cache.(j + 1) -. lgamma_cache.(n - j + 1)
    in
    let acc = ref 0. in
    for j = k to n do
      let lp = log_choose j +. (float_of_int j *. log_p) +. (float_of_int (n - j) *. log_q) in
      acc := !acc +. exp lp
    done;
    Float.min 1. !acc
  end
