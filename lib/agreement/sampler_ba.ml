open Idspace

type behaviour = Silent | Random | Collude_against of bool

type outcome = {
  decisions : bool option array;
  rounds : int;
  messages : int;
  bits : int;
  sample_size : int;
  coin_flips : int;
}

let tolerates ~n ~t = 8 * t < n

let sample_size ~n =
  let nf = float_of_int n in
  min (n - 1) (int_of_float (ceil (sqrt nf *. (log nf /. log 2.))))

let max_rounds ~n =
  6 + (2 * int_of_float (ceil (log (float_of_int (max 2 n)) /. log 2.)))

let run ?(conditions = Sim.Conditions.none) ?metrics rng ~inputs ~byzantine
    ~behaviour =
  let n = Array.length inputs in
  if n < 2 then invalid_arg "Sampler_ba.run: need at least two nodes";
  if Array.length byzantine <> n then
    invalid_arg "Sampler_ba.run: array length mismatch";
  let conds = Sim.Conditions.activate ?metrics conditions in
  let k = sample_size ~n in
  let cap = max_rounds ~n in
  let pts = Array.init n (fun i -> Point.add_cw Point.zero (i + 1)) in
  (* The global coin's stream is split off first so adding polls
     never perturbs the coin sequence (and vice versa). *)
  let coin_rng = Prng.Rng.split rng in
  let messages = ref 0 and bits = ref 0 and coin_flips = ref 0 in
  let round = ref 0 in
  let count_metric name v =
    match metrics with Some m -> Sim.Metrics.add m name v | None -> ()
  in
  let pref = Array.copy inputs in
  let confidence = Array.make n 0 in
  let decided = Array.make n None in
  (* One poll: a 1-bit request out, a 1-bit response back; either leg
     can be lost to the injector, retried within the budget. *)
  let charge () =
    incr messages;
    bits := !bits + 1;
    count_metric Sim.Metrics.msg_agreement 1;
    count_metric Sim.Metrics.ba_bits_sent 1
  in
  let deliver ~src ~dst =
    Sim.Conditions.transmit conds ~now:!round ~src:pts.(src) ~dst:pts.(dst) ~charge
  in
  let respond j =
    if byzantine.(j) then
      match behaviour with
      | Silent -> None
      | Random -> Some (Prng.Rng.bool rng)
      | Collude_against v -> Some (not v)
    else Some (match decided.(j) with Some d -> d | None -> pref.(j))
  in
  let all_decided () =
    let ok = ref true in
    for i = 0 to n - 1 do
      if (not byzantine.(i)) && decided.(i) = None then ok := false
    done;
    !ok
  in
  while (not (all_decided ())) && !round < cap do
    incr round;
    let coin = Prng.Rng.bool coin_rng in
    let coin_used = ref false in
    for i = 0 to n - 1 do
      if (not byzantine.(i)) && decided.(i) = None then begin
        (* Draw the sample from [i]'s perspective: k distinct peers. *)
        let sample = Prng.Rng.sample_without_replacement rng k (n - 1) in
        let ones = ref 0 and heard = ref 0 in
        Array.iter
          (fun raw ->
            let j = if raw >= i then raw + 1 else raw in
            if deliver ~src:i ~dst:j then
              match respond j with
              | Some v ->
                  if deliver ~src:j ~dst:i then begin
                    incr heard;
                    if v then incr ones
                  end
              | None -> ())
          sample;
        if !heard = 0 then confidence.(i) <- 0
        else begin
          let maj = 2 * !ones >= !heard in
          let strength =
            let frac = float_of_int !ones /. float_of_int !heard in
            Float.max frac (1. -. frac)
          in
          if strength >= 0.75 then begin
            pref.(i) <- maj;
            confidence.(i) <- confidence.(i) + 1;
            if confidence.(i) >= 2 then decided.(i) <- Some maj
          end
          else if strength >= 0.625 then begin
            pref.(i) <- maj;
            confidence.(i) <- 0
          end
          else begin
            pref.(i) <- coin;
            confidence.(i) <- 0;
            coin_used := true
          end
        end
      end
    done;
    if !coin_used then incr coin_flips
  done;
  (* Liveness backstop: past the cap, adopt the current preference.
     The law suite runs well inside the cap at the tested sizes. *)
  for i = 0 to n - 1 do
    if (not byzantine.(i)) && decided.(i) = None then decided.(i) <- Some pref.(i)
  done;
  {
    decisions = Array.mapi (fun i d -> if byzantine.(i) then None else d) decided;
    rounds = !round;
    messages = !messages;
    bits = !bits;
    sample_size = k;
    coin_flips = !coin_flips;
  }
