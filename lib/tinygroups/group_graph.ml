open Idspace
open Adversary

type color = Blue | Red

(* Flat representation, aligned to the population's sorted ring: the
   group led by the ID of rank [r] lives at [group_by_rank.(r)], and
   confused/suspect are rank-indexed bitmaps. A leader's rank is the
   ring's own binary search, so the graph keeps no second index. Every
   field, [blue] included, is computed by [make] and never written
   again, so a graph can be shared across domains as it is. *)
type t = {
  params : Params.t;
  population : Population.t;
  overlay : Overlay.Overlay_intf.t;
  ring : Ring.t;  (* = Population.ring population, the rank space *)
  group_by_rank : Group.t array;
  confused_bits : Bytes.t;
  suspect_bits : Bytes.t;
  blue : Point.t array;  (* blue leaders, ascending rank *)
}

let params t = t.params
let population t = t.population
let overlay t = t.overlay

(* -- bitmaps ------------------------------------------------------- *)

let bitmap n = Bytes.make ((n + 7) lsr 3) '\x00'

let bit_get b i = Char.code (Bytes.unsafe_get b (i lsr 3)) land (1 lsl (i land 7)) <> 0

let bit_set b i =
  Bytes.unsafe_set b (i lsr 3)
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get b (i lsr 3)) lor (1 lsl (i land 7))))

(* -- construction -------------------------------------------------- *)

(* Searches walk the overlay's ranks and read the groups at those
   ranks, so the overlay must be built over the population's ring. *)
let make ~params ~population ~overlay ~group_by_rank ~confused ~suspect =
  let ring = Population.ring population in
  if not (Ring.equal overlay.Overlay.Overlay_intf.ring ring) then
    invalid_arg "Group_graph: overlay ring is not the population's ring";
  let n = Ring.cardinal ring in
  let confused_bits = bitmap n and suspect_bits = bitmap n in
  let mark bits what p =
    let r = Ring.rank ring p in
    if r < 0 then invalid_arg ("Group_graph.assemble: " ^ what ^ " leader not in population");
    bit_set bits r
  in
  List.iter (mark confused_bits "confused") confused;
  List.iter (mark suspect_bits "suspect") suspect;
  let red r = group_by_rank.(r).Group.health <> Group.Good || bit_get confused_bits r in
  (* Ascending ring order, like every other leader enumeration. Sweeps
     index the array with raw PRNG draws, so the layout is
     digest-relevant. *)
  let n_blue = ref 0 in
  for r = 0 to n - 1 do
    if not (red r) then incr n_blue
  done;
  let blue = Array.make !n_blue Point.zero in
  let i = ref 0 in
  for r = 0 to n - 1 do
    if not (red r) then begin
      blue.(!i) <- Ring.nth ring r;
      incr i
    end
  done;
  { params; population; overlay; ring; group_by_rank; confused_bits; suspect_bits; blue }

module Builder = struct
  type b = {
    params : Params.t;
    population : Population.t;
    member_oracle : Hashing.Oracle.t;
    ring : Ring.t;
    scratch : int array;  (* successor ranks of the draws *)
  }

  let create ~params ~population ~member_oracle =
    { params; population; member_oracle; ring = Population.ring population; scratch = Array.make 64 0 }

  (* Draw the ranks of [suc(oracle(w, i))], [i = 1 .. draws], into
     [scratch] (a group drawing more than it holds gets a fresh
     buffer), then sort and deduplicate them in place. *)
  let form_group b w =
    let ln_ln_estimate = Estimate.ln_ln_n b.ring w in
    let draws = Params.member_draws_estimated b.params ~ln_ln_estimate in
    if draws = 0 then Group.form b.params b.population ~leader:w ~members:[]
    else begin
      let s = if Array.length b.scratch < draws then Array.make draws 0 else b.scratch in
      for i = 1 to draws do
        let u = Point.of_int (Hashing.Oracle.draw_indexed b.member_oracle (w :> int) i) in
        s.(i - 1) <- Ring.successor_rank b.ring u
      done;
      (* Sort the dozen-or-so ranks in place (rank order is ring
         order) and squeeze out duplicates — no per-group lists. *)
      for i = 1 to draws - 1 do
        let v = s.(i) in
        let j = ref (i - 1) in
        while !j >= 0 && s.(!j) > v do
          s.(!j + 1) <- s.(!j);
          decr j
        done;
        s.(!j + 1) <- v
      done;
      let m = ref 1 in
      for i = 1 to draws - 1 do
        if s.(i) <> s.(!m - 1) then begin
          s.(!m) <- s.(i);
          incr m
        end
      done;
      let members = Array.init !m (fun i -> Ring.nth b.ring s.(i)) in
      Group.of_sorted_members b.params b.population ~leader:w ~members
    end
end

let build_direct ?(jobs = 1) ~params ~population ~overlay ~member_oracle () =
  let ring = Population.ring population in
  let n = Ring.cardinal ring in
  if n < 3 then invalid_arg "Group_graph.build_direct: population too small";
  (* Every group is a pure function of (ring, oracle, rank), so the
     rank slices are independent: each gets its own builder (whose
     scratch buffer is the only state written) and the slices are
     concatenated in rank order, byte-identical at every [jobs]. *)
  let group_by_rank =
    Array.concat
      (Parallel.Pool.map_slices ~jobs ~n (fun lo hi ->
           let b = Builder.create ~params ~population ~member_oracle in
           Array.init (hi - lo) (fun i -> Builder.form_group b (Ring.nth ring (lo + i)))))
  in
  make ~params ~population ~overlay ~group_by_rank ~confused:[] ~suspect:[]

let assemble ~params ~population ~overlay ~groups ~confused ?(suspect = []) () =
  let ring = Population.ring population in
  if Array.length groups <> Ring.cardinal ring then
    invalid_arg "Group_graph.assemble: one group per ID expected";
  Array.iteri
    (fun r g ->
      if not (Point.equal g.Group.leader (Ring.nth ring r)) then
        invalid_arg "Group_graph.assemble: groups not in ring-rank order")
    groups;
  make ~params ~population ~overlay ~group_by_rank:groups ~confused ~suspect

(* -- structural equality ------------------------------------------- *)

(* Rank-aligned deep comparison: same leaders in rank order, identical
   member sets, ground-truth labels and health per group, identical
   confused/suspect bitmaps. This is the gate behind every
   jobs-invariance assertion — the parallel build and transition paths
   must produce a graph [equal] to the sequential one. *)
let equal a b =
  let n = Array.length a.group_by_rank in
  n = Array.length b.group_by_rank
  &&
  let ok = ref true in
  let r = ref 0 in
  while !ok && !r < n do
    let i = !r in
    let ga = Array.unsafe_get a.group_by_rank i
    and gb = Array.unsafe_get b.group_by_rank i in
    if
      (not (Point.equal (Ring.nth a.ring i) (Ring.nth b.ring i)))
      || (not (Point.equal ga.Group.leader gb.Group.leader))
      || ga.Group.health <> gb.Group.health
      || ga.Group.bad_members <> gb.Group.bad_members
      || Array.length ga.Group.members <> Array.length gb.Group.members
      || (not (Array.for_all2 Point.equal ga.Group.members gb.Group.members))
      || bit_get a.confused_bits i <> bit_get b.confused_bits i
      || bit_get a.suspect_bits i <> bit_get b.suspect_bits i
    then ok := false;
    incr r
  done;
  !ok

(* -- queries ------------------------------------------------------- *)

let group_at t r = t.group_by_rank.(r)

let red_at t r =
  let g = t.group_by_rank.(r) in
  g.Group.health <> Group.Good || bit_get t.confused_bits r

let hijacked_at t r =
  let g = t.group_by_rank.(r) in
  g.Group.health = Group.Hijacked || bit_get t.confused_bits r

let leader_rank t p =
  let r = Ring.rank t.ring p in
  if r < 0 then raise Not_found;
  r

let group_of t p = Array.unsafe_get t.group_by_rank (leader_rank t p)

let color_of t p = if red_at t (leader_rank t p) then Red else Blue

let hijacked t p = hijacked_at t (leader_rank t p)

let leaders t = Ring.to_sorted_array t.ring

let n_groups t = Array.length t.group_by_rank

let groups t = Array.copy t.group_by_rank

let confused_leaders t =
  let acc = ref [] in
  for r = Array.length t.group_by_rank - 1 downto 0 do
    if bit_get t.confused_bits r then acc := Ring.nth t.ring r :: !acc
  done;
  !acc

(* -- iteration ------------------------------------------------------ *)

(* Ring order, rank 0 upward — the seed implementation's Hashtbl
   bucket order (and the permutation that replayed it after the
   flat rewrite) was retired at the 2026-08 digest regeneration; see
   DESIGN.md §7 and the provenance appendix in EXPERIMENTS.md. The
   order is part of the digest contract: order-sensitive sweeps
   (PRNG-consuming trials, float accumulations, first-k picks)
   consume it, and a qcheck case pins it to [leaders]. *)
let iter_groups f t =
  let n = Array.length t.group_by_rank in
  for rank = 0 to n - 1 do
    f (Ring.nth t.ring rank) (Array.unsafe_get t.group_by_rank rank)
  done

let fold_groups f t init =
  let acc = ref init in
  iter_groups (fun leader g -> acc := f leader g !acc) t;
  !acc

(* -- aggregates ---------------------------------------------------- *)

type census = {
  total : int;
  good : int;
  weak : int;
  hijacked_ : int;
  confused_ : int;
  suspect_ : int;
  red : int;
}

let census t =
  let total = Array.length t.group_by_rank in
  let good = ref 0 and weak = ref 0 and hij = ref 0 in
  let conf = ref 0 and susp = ref 0 and red = ref 0 in
  for r = 0 to total - 1 do
    let g = Array.unsafe_get t.group_by_rank r in
    (match g.Group.health with
    | Group.Good -> incr good
    | Group.Weak -> incr weak
    | Group.Hijacked -> incr hij);
    let is_conf = bit_get t.confused_bits r in
    if is_conf then incr conf;
    if bit_get t.suspect_bits r then incr susp;
    if g.Group.health <> Group.Good || is_conf then incr red
  done;
  {
    total;
    good = !good;
    weak = !weak;
    hijacked_ = !hij;
    confused_ = !conf;
    suspect_ = !susp;
    red = !red;
  }

let blue_leaders t = t.blue

let random_blue_leader rng t =
  let blue = blue_leaders t in
  if Array.length blue = 0 then None else Some blue.(Prng.Rng.int rng (Array.length blue))

let mean_group_size t =
  let total = Array.fold_left (fun acc g -> acc + Group.size g) 0 t.group_by_rank in
  float_of_int total /. float_of_int (max 1 (Array.length t.group_by_rank))
