open Idspace

type t = {
  names : string array;
  keys : Point.t array;
}

let make ~system_key ~names =
  let oracle = Hashing.Oracle.make ~system_key ~label:"resource-keys" in
  let keys = Array.map (fun name -> Point.of_u62 (Hashing.Oracle.query_string oracle name)) names in
  { names; keys }

let synthetic ~system_key ~count ~prefix =
  make ~system_key ~names:(Array.init count (fun i -> prefix ^ string_of_int i))

let count t = Array.length t.names
let name t i = t.names.(i)
let key t i = t.keys.(i)

type popularity = Uniform_pop | Zipf of float

(* A distribution precomputes the (potentially large) cumulative
   weight table once, so many independent per-user streams can share
   it; [draw] takes the stream explicitly. *)
type dist =
  | Uniform_dist of int
  | Zipf_dist of { cumulative : float array; total : float }

let distribution t pop =
  let n = count t in
  if n = 0 then invalid_arg "Resources.distribution: empty universe";
  match pop with
  | Uniform_pop -> Uniform_dist n
  | Zipf s ->
      let weights = Array.init n (fun i -> 1. /. (float_of_int (i + 1) ** s)) in
      let cumulative = Array.make n 0. in
      let total =
        let acc = ref 0. in
        Array.iteri
          (fun i w ->
            acc := !acc +. w;
            cumulative.(i) <- !acc)
          weights;
        !acc
      in
      Zipf_dist { cumulative; total }

let draw rng = function
  | Uniform_dist n -> Prng.Rng.int rng n
  | Zipf_dist { cumulative; total } ->
      (* Inverse CDF: binary search for the first cumulative weight
         >= target. *)
      let target = Prng.Rng.float rng *. total in
      let n = Array.length cumulative in
      let lo = ref 0 and hi = ref (n - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if cumulative.(mid) < target then lo := mid + 1 else hi := mid
      done;
      !lo

let sampler rng t pop =
  let d = distribution t pop in
  fun () -> draw rng d
