type rule = Cuckoo | Commensal of int

type config = {
  n : int;
  beta : float;
  group_size : int;
  k : float;
  rule : rule;
  threshold : float;
  benign_churn : float;
}

let default_config ~n ~beta ~group_size =
  { n; beta; group_size; k = 4.; rule = Cuckoo; threshold = 0.5; benign_churn = 0. }

type outcome = {
  rounds_survived : int;
  compromised : bool;
  max_bad_fraction : float;
}

(* Mutable world: node positions in [0,1) floats (precision is ample
   for region bookkeeping), per-quorum-region good/bad counts. *)
type world = {
  cfg : config;
  pos : float array;  (* position of node i *)
  bad : bool array;
  regions : int;  (* quorum regions *)
  good_count : int array;
  bad_count : int array;
  region_members : (int, unit) Hashtbl.t array;  (* node ids per region *)
}

let region_of w x =
  let r = int_of_float (x *. float_of_int w.regions) in
  if r >= w.regions then w.regions - 1 else r

let place w i x =
  w.pos.(i) <- x;
  let r = region_of w x in
  Hashtbl.replace w.region_members.(r) i ();
  if w.bad.(i) then w.bad_count.(r) <- w.bad_count.(r) + 1
  else w.good_count.(r) <- w.good_count.(r) + 1

let remove w i =
  let r = region_of w w.pos.(i) in
  Hashtbl.remove w.region_members.(r) i;
  if w.bad.(i) then w.bad_count.(r) <- w.bad_count.(r) - 1
  else w.good_count.(r) <- w.good_count.(r) - 1

let make_world rng cfg =
  if cfg.n < cfg.group_size || cfg.group_size < 1 then invalid_arg "Cuckoo.make_world";
  let regions = max 1 (cfg.n / cfg.group_size) in
  let bad_total = int_of_float (ceil (cfg.beta *. float_of_int cfg.n)) in
  let w =
    {
      cfg;
      pos = Array.make cfg.n 0.;
      bad = Array.init cfg.n (fun i -> i < bad_total);
      regions;
      good_count = Array.make regions 0;
      bad_count = Array.make regions 0;
      region_members = Array.init regions (fun _ -> Hashtbl.create 8);
    }
  in
  for i = 0 to cfg.n - 1 do
    place w i (Prng.Rng.float rng)
  done;
  w

let bad_fraction w r =
  let total = w.good_count.(r) + w.bad_count.(r) in
  if total = 0 then 0. else float_of_int w.bad_count.(r) /. float_of_int total

(* Nodes inside the k-region (of fractional width k/n) containing x.
   k-regions are aligned, per Awerbuch–Scheideler. *)
let k_region_nodes w x =
  let k_regions = max 1 (int_of_float (float_of_int w.cfg.n /. w.cfg.k)) in
  let idx = min (k_regions - 1) (int_of_float (x *. float_of_int k_regions)) in
  let lo = float_of_int idx /. float_of_int k_regions in
  let hi = float_of_int (idx + 1) /. float_of_int k_regions in
  (* Scan only the quorum regions overlapping [lo, hi). *)
  let r_lo = min (w.regions - 1) (int_of_float (lo *. float_of_int w.regions)) in
  let r_hi = min (w.regions - 1) (int_of_float (hi *. float_of_int w.regions)) in
  let nodes = ref [] in
  for r = r_lo to r_hi do
    Hashtbl.iter
      (fun i () -> if w.pos.(i) >= lo && w.pos.(i) < hi then nodes := i :: !nodes)
      w.region_members.(r)
  done;
  !nodes

let rejoin rng w i =
  remove w i;
  let x = Prng.Rng.float rng in
  (match w.cfg.rule with
  | Cuckoo ->
      (* Every inhabitant of x's k-region is cuckooed to a fresh
         uniform position (no recursive eviction). *)
      let evicted = k_region_nodes w x in
      List.iter
        (fun j ->
          remove w j;
          place w j (Prng.Rng.float rng))
        evicted
  | Commensal count ->
      let r = region_of w x in
      let members = Array.of_seq (Hashtbl.to_seq_keys w.region_members.(r)) in
      Prng.Rng.shuffle rng members;
      let evict = min count (Array.length members) in
      for c = 0 to evict - 1 do
        let j = members.(c) in
        remove w j;
        place w j (Prng.Rng.float rng)
      done);
  place w i x

let simulate rng cfg ~max_rounds =
  let w = make_world rng cfg in
  let bad_nodes =
    Array.of_list
      (List.filter (fun i -> w.bad.(i)) (List.init cfg.n (fun i -> i)))
  in
  let max_frac = ref 0. in
  let check_all () =
    let worst = ref 0. in
    for r = 0 to w.regions - 1 do
      let f = bad_fraction w r in
      if f > !worst then worst := f
    done;
    !worst
  in
  max_frac := check_all ();
  let rounds = ref 0 in
  let compromised = ref (!max_frac >= cfg.threshold && Array.length bad_nodes > 0) in
  let good_nodes =
    Array.of_list (List.filter (fun i -> not w.bad.(i)) (List.init cfg.n (fun i -> i)))
  in
  while (not !compromised) && !rounds < max_rounds && Array.length bad_nodes > 0 do
    incr rounds;
    (* Join-leave attack: one adversarial node departs and rejoins. *)
    let i = bad_nodes.(Prng.Rng.int rng (Array.length bad_nodes)) in
    rejoin rng w i;
    (* Optional benign background churn. *)
    if
      cfg.benign_churn > 0.
      && Array.length good_nodes > 0
      && Prng.Rng.bernoulli rng cfg.benign_churn
    then rejoin rng w good_nodes.(Prng.Rng.int rng (Array.length good_nodes));
    (* Only regions touched this round can newly exceed the
       threshold, but a full scan is cheap relative to eviction and
       keeps the bookkeeping honest. *)
    let worst = check_all () in
    if worst > !max_frac then max_frac := worst;
    if worst >= cfg.threshold then compromised := true
  done;
  { rounds_survived = !rounds; compromised = !compromised; max_bad_fraction = !max_frac }
