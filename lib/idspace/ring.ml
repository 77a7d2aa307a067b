(* Immutable snapshot of the ID population: a compact sorted base plus
   a small sorted delta of added points.

   The base is the points themselves, sorted ascending, so rank k is
   the k-th ID clockwise from 0. Points are unboxed ints, so every
   query is a binary search over a flat array, and on a compact ring
   [random_member] is one array index.

   [add] copies only the delta: the points added since the last
   compaction, each with its rank in the merged order. Once the delta
   holds about √n points it is folded into the base in one O(n) merge,
   so k single adds cost O(k √n) instead of the O(k n) of copying the
   whole snapshot each time. Every other constructor returns a compact
   ring (empty delta). A query searches both sides, O(log n + log √n);
   on a compact ring the delta search returns at once. *)

type t = {
  pts : Point.t array;  (* base, sorted ascending, distinct *)
  dpts : Point.t array;  (* delta: sorted ascending, disjoint from pts *)
  dranks : int array;
      (* merged rank of dpts.(j): the base points below it plus j *)
}

let compact pts = { pts; dpts = [||]; dranks = [||] }

let empty = compact [||]

let of_list ps =
  match List.sort_uniq Point.compare ps with
  | [] -> empty
  | ps -> compact (Array.of_list ps)

let of_array ps = of_list (Array.to_list ps)

let cardinal t = Array.length t.pts + Array.length t.dpts

(* First index whose point is >= k; [Array.length pts] when none. *)
let lower_bound (pts : Point.t array) k =
  let lo = ref 0 and hi = ref (Array.length pts) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if Array.unsafe_get pts mid < k then lo := mid + 1 else hi := mid
  done;
  !lo

(* First index whose point is > k. *)
let upper_bound (pts : Point.t array) k =
  let lo = ref 0 and hi = ref (Array.length pts) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if Array.unsafe_get pts mid <= k then lo := mid + 1 else hi := mid
  done;
  !lo

let mem_sorted pts p =
  let i = lower_bound pts p in
  i < Array.length pts && Array.unsafe_get pts i = p

let mem p t = mem_sorted t.pts p || mem_sorted t.dpts p

(* The point at merged position [i + j], where [i] base points and [j]
   delta points precede it (wrapping to position 0 past the end). *)
let rec at_split t i j =
  let nb = Array.length t.pts and nd = Array.length t.dpts in
  if i = nb && j = nd then at_split t 0 0
  else if j = nd || (i < nb && Array.unsafe_get t.pts i < Array.unsafe_get t.dpts j)
  then Array.unsafe_get t.pts i
  else Array.unsafe_get t.dpts j

(* The point just before merged position [i + j] (wrapping to the
   last point before position 0). *)
let rec before_split t i j =
  if i = 0 && j = 0 then before_split t (Array.length t.pts) (Array.length t.dpts)
  else if j = 0 || (i > 0 && Array.unsafe_get t.pts (i - 1) > Array.unsafe_get t.dpts (j - 1))
  then Array.unsafe_get t.pts (i - 1)
  else Array.unsafe_get t.dpts (j - 1)

(* Base and delta merged into one compact ring, the delta ranks giving
   every point's slot directly. *)
let fold_delta t =
  let n = cardinal t and nd = Array.length t.dpts in
  let pts = Array.make n Point.zero in
  let j = ref 0 in
  for r = 0 to n - 1 do
    if !j < nd && Array.unsafe_get t.dranks !j = r then begin
      Array.unsafe_set pts r (Array.unsafe_get t.dpts !j);
      incr j
    end
    else Array.unsafe_set pts r (Array.unsafe_get t.pts (r - !j))
  done;
  compact pts

let compacted t = if Array.length t.dpts = 0 then t else fold_delta t

let add p t =
  let nb = Array.length t.pts and nd = Array.length t.dpts in
  let i = lower_bound t.pts p in
  if i < nb && Array.unsafe_get t.pts i = p then t
  else
    let j = lower_bound t.dpts p in
    if j < nd && Array.unsafe_get t.dpts j = p then t
    else begin
      let insert a x =
        let b = Array.make (nd + 1) x in
        Array.blit a 0 b 0 j;
        Array.blit a j b (j + 1) (nd - j);
        b
      in
      let dranks = insert t.dranks (i + j) in
      for q = j + 1 to nd do
        Array.unsafe_set dranks q (Array.unsafe_get dranks q + 1)
      done;
      let t = { t with dpts = insert t.dpts p; dranks } in
      (* Fold once the delta holds about sqrt n points. *)
      if (nd + 1) * (nd + 1) >= nb + nd + 1 then fold_delta t else t
    end

let remove p t =
  if not (mem p t) then t
  else
    let t = compacted t in
    let i = lower_bound t.pts p in
    let n = Array.length t.pts in
    if n = 1 then empty
    else compact (Array.init (n - 1) (fun j -> t.pts.(if j < i then j else j + 1)))

let add_batch ps t =
  match List.sort_uniq Point.compare ps with
  | [] -> t
  | ps ->
      let t = compacted t in
      let inc = Array.of_list ps in
      let m = Array.length inc and n = Array.length t.pts in
      let out = Array.make (n + m) inc.(0) in
      let i = ref 0 and j = ref 0 and o = ref 0 in
      let push p =
        out.(!o) <- p;
        incr o
      in
      while !i < n && !j < m do
        let c = Point.compare t.pts.(!i) inc.(!j) in
        if c < 0 then begin
          push t.pts.(!i);
          incr i
        end
        else if c > 0 then begin
          push inc.(!j);
          incr j
        end
        else begin
          push t.pts.(!i);
          incr i;
          incr j
        end
      done;
      while !i < n do
        push t.pts.(!i);
        incr i
      done;
      while !j < m do
        push inc.(!j);
        incr j
      done;
      if !o = n then t
      else if !o = n + m then compact out
      else compact (Array.sub out 0 !o)

let remove_batch ps t =
  match List.sort_uniq Point.compare ps with
  | [] -> t
  | ps ->
      let t = compacted t in
      let gone = Array.of_list ps in
      let m = Array.length gone and n = Array.length t.pts in
      (* Size the result exactly: no oversized buffer to copy down. *)
      let present = Array.fold_left (fun k p -> if mem_sorted t.pts p then k + 1 else k) 0 gone in
      if present = 0 then t
      else if present = n then empty
      else begin
        let out = Array.make (n - present) Point.zero in
        let j = ref 0 and o = ref 0 in
        for i = 0 to n - 1 do
          let p = t.pts.(i) in
          while !j < m && Point.compare gone.(!j) p < 0 do
            incr j
          done;
          if !j < m && Point.equal gone.(!j) p then incr j
          else begin
            out.(!o) <- p;
            incr o
          end
        done;
        compact out
      end

let successor_exn t x =
  if cardinal t = 0 then raise Not_found;
  at_split t (lower_bound t.pts x) (lower_bound t.dpts x)

let successor t x = if cardinal t = 0 then None else Some (successor_exn t x)

let strict_successor_exn t x =
  if cardinal t = 0 then raise Not_found;
  at_split t (upper_bound t.pts x) (upper_bound t.dpts x)

let strict_successor t x = if cardinal t = 0 then None else Some (strict_successor_exn t x)

let predecessor t x =
  if cardinal t = 0 then None
  else
    (* Points strictly below x: [lower_bound x] of each side. *)
    Some (before_split t (lower_bound t.pts x) (lower_bound t.dpts x))

let responsibility t id =
  if not (mem id t) then None
  else
    match predecessor t id with
    | None -> None
    | Some p ->
        if Point.equal p id then Some Interval.full
        else Some (Interval.make ~from:p ~until:id)

let nth t i =
  if i < 0 || i >= cardinal t then invalid_arg "index out of bounds";
  (* Delta points ranked below [i] (the first [j] with
     [dranks.(j) >= i]); [i] is a delta point's rank or the base point
     that many slots further down. *)
  let lo = ref 0 and hi = ref (Array.length t.dranks) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if Array.unsafe_get t.dranks mid < i then lo := mid + 1 else hi := mid
  done;
  let j = !lo in
  if j < Array.length t.dranks && Array.unsafe_get t.dranks j = i then
    Array.unsafe_get t.dpts j
  else Array.unsafe_get t.pts (i - j)

let rank t p =
  let i = lower_bound t.pts p and j = lower_bound t.dpts p in
  if i < Array.length t.pts && Array.unsafe_get t.pts i = p then i + j
  else if j < Array.length t.dpts && Array.unsafe_get t.dpts j = p then
    Array.unsafe_get t.dranks j
  else -1

let successor_rank t x =
  let n = cardinal t in
  if n = 0 then raise Not_found;
  let i = lower_bound t.pts x + lower_bound t.dpts x in
  if i = n then 0 else i

let to_sorted_array t = (fold_delta t).pts

let equal a b =
  a == b
  || cardinal a = cardinal b
     &&
     let n = cardinal a in
     let r = ref 0 in
     while !r < n && Point.equal (nth a !r) (nth b !r) do
       incr r
     done;
     !r = n

let fold f t init =
  let acc = ref init in
  let nd = Array.length t.dpts and j = ref 0 in
  for r = 0 to cardinal t - 1 do
    let p =
      if !j < nd && Array.unsafe_get t.dranks !j = r then begin
        let p = Array.unsafe_get t.dpts !j in
        incr j;
        p
      end
      else Array.unsafe_get t.pts (r - !j)
    in
    acc := f p !acc
  done;
  !acc

let iter f t = fold (fun p () -> f p) t ()

let random_member rng t =
  let n = cardinal t in
  if n = 0 then invalid_arg "Ring.random_member: empty ring";
  nth t (Prng.Rng.int rng n)

let populate rng n =
  if n = 0 then empty
  else begin
    (* Same draw sequence as the historical Set-based accumulator: a
       colliding draw is rejected against the points accepted so far
       and redrawn. *)
    let seen = Hashtbl.create (2 * n) in
    let out = Array.make n Point.zero in
    let filled = ref 0 in
    while !filled < n do
      let p = Point.random rng in
      if not (Hashtbl.mem seen p) then begin
        Hashtbl.add seen p ();
        out.(!filled) <- p;
        incr filled
      end
    done;
    Array.sort Point.compare out;
    compact out
  end
