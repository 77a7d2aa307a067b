open Idspace

(* The linking rule, in rank space: the predecessor plus the fingers
   [suc(w + 2^j)], j = 0..61, ascending and without [w] itself.

   A finger [f = suc(w + 2^j)] at clockwise distance [d] from [w] is
   also [suc(w + 2^j')] for every larger stride with [2^j' <= d]: the
   target lies on the arc [w + 2^j, f], which holds no ID before [f].
   So only the strides that leave the current finger's gap search the
   ring — about lg n of the 62. Once a finger is [w] itself (a ring of
   one, or a stride that wrapped into [w]'s own arc), every larger
   stride lands on [w] too and adds nothing.

   The ranks collect in a per-call buffer (the rule runs on several
   domains at once), insertion-sorted and de-duplicated, then mapped
   to points once. *)
let neighbors_of ring w =
  let n = Ring.cardinal ring in
  let buf = Array.make 63 0 and len = ref 0 in
  let push r =
    let i = ref !len in
    while !i > 0 && Array.unsafe_get buf (!i - 1) > r do
      decr i
    done;
    if !i = 0 || Array.unsafe_get buf (!i - 1) <> r then begin
      Array.blit buf !i buf (!i + 1) (!len - !i);
      Array.unsafe_set buf !i r;
      incr len
    end
  in
  let j = ref 0 in
  while !j <= 61 do
    let r = Ring.successor_rank ring (Point.add_cw w (1 lsl !j)) in
    let d = Point.distance_cw w (Ring.nth ring r) in
    if d = 0 then j := 62
    else begin
      push r;
      incr j;
      while !j <= 61 && 1 lsl !j <= d do
        incr j
      done
    end
  done;
  let p = (Ring.successor_rank ring w + n - 1) mod n in
  if not (Point.equal (Ring.nth ring p) w) then push p;
  let acc = ref [] in
  for i = !len - 1 downto 0 do
    acc := Ring.nth ring (Array.unsafe_get buf i) :: !acc
  done;
  !acc

(* [Point.distance_cw], written out so that the sweep's inner loop
   makes no call. *)
let dist (a : Point.t) (b : Point.t) = ((b :> int) - (a :> int)) land ((1 lsl 62) - 1)

let set adj i x = Overlay_intf.set32 adj (4 * i) (Int32.of_int x)

(* floor (log2 x) for x >= 1, by halving the bit range. *)
let floor_lg x =
  let l = if x lsr 32 > 0 then 32 else 0 in
  let l = if x lsr (l + 16) > 0 then l + 16 else l in
  let l = if x lsr (l + 8) > 0 then l + 8 else l in
  let l = if x lsr (l + 4) > 0 then l + 4 else l in
  let l = if x lsr (l + 2) > 0 then l + 2 else l in
  if x lsr (l + 1) > 0 then l + 1 else l

(* The linking rule applied to every rank at once, in one forward
   sweep: the CSR table of {!Overlay_intf.t}.

   [suc(w + 2^j)] only moves clockwise as [w] does, so each stride
   keeps one monotone pointer [q.(j)] into the ring, unwrapped: an
   index in [r+1, r+n] read mod n, where [r+n] stands for [w] itself
   (the target wrapped into [w]'s own arc). A pointer moves at most
   [2n] steps over the sweep, and a node queries only the strides
   that leave its current finger's gap (see [neighbors_of]).

   The fingers come out clockwise from [w]; the row is ascending rank,
   so those that wrapped past rank n-1 come first, then the
   predecessor, then the rest (for rank 0 the predecessor n-1 comes
   last). The buffer is sized once from a per-node bound: the first
   finger lies one gap [g] away and every later one needs a stride
   above the previous finger's distance, so a row holds at most
   [63 - floor_lg g] entries — about lg n + 2 on a random ring, a few
   percent above the true degree. The slack stays at the tail. *)
let table ring =
  let n = Ring.cardinal ring in
  let pts = Ring.to_sorted_array ring in
  let cap = ref 0 in
  if n > 1 then
    for r = 0 to n - 1 do
      let g = dist pts.(r) pts.(if r = n - 1 then 0 else r + 1) in
      let bound = 63 - floor_lg g in
      cap := !cap + if bound < n then bound else n - 1
    done;
  let adj = Overlay_intf.table_create !cap in
  let off = Array.make (n + 1) 0 in
  let q = Array.make 62 0 and fingers = Array.make 62 0 in
  let pos = ref 0 in
  for r = 0 to n - 1 do
    off.(r) <- !pos;
    let w = pts.(r) in
    let m = ref 0 and j = ref 0 in
    while !j <= 61 do
      (* Advance stride j's pointer to the first ID at distance
         [d >= 2^j]; [d] stays 0 when the stride wraps into [w]. *)
      let stride = 1 lsl !j in
      let p = ref (if q.(!j) > r then q.(!j) else r + 1) and d = ref 0 in
      while !d = 0 && !p < r + n do
        let x = dist w (Array.unsafe_get pts (if !p >= n then !p - n else !p)) in
        if x < stride then incr p else d := x
      done;
      q.(!j) <- !p;
      if !d = 0 then j := 62
      else begin
        fingers.(!m) <- !p;
        incr m;
        (* The next stride that leaves this finger's gap. *)
        j := floor_lg !d + 1
      end
    done;
    let wrapped = ref 0 in
    while !wrapped < !m && fingers.(!wrapped) < n do
      incr wrapped
    done;
    for i = !wrapped to !m - 1 do
      set adj !pos (fingers.(i) - n);
      incr pos
    done;
    let pred = n > 1 && not (!m > 0 && fingers.(!m - 1) = r + n - 1) in
    if pred && r > 0 then begin
      set adj !pos (r - 1);
      incr pos
    end;
    for i = 0 to !wrapped - 1 do
      set adj !pos fingers.(i);
      incr pos
    done;
    if pred && r = 0 then begin
      set adj !pos (n - 1);
      incr pos
    end
  done;
  off.(n) <- !pos;
  (off, adj)

let rec make ring =
  let n = Ring.cardinal ring in
  if n = 0 then invalid_arg "Chord.make: empty ring";
  let off, adj = table ring in
  (* Greedy closest preceding finger, in ranks: from rank [r] toward
     [resp <> r], the neighbour farthest clockwise that stays short of
     [resp], i.e. the largest offset [(u - r) mod n] below
     [(resp - r) mod n]. The successor [r+1] (offset 1) is always a
     neighbour, so the hop is [r+1] exactly when [resp = r+1]. Each
     hop strictly shrinks the offset to [resp], so the walk ends. *)
  let next r resp =
    let bound = if resp >= r then resp - r else resp - r + n in
    let best = ref 1 in
    for i = off.(r) to off.(r + 1) - 1 do
      let o = Int32.to_int (Overlay_intf.get32 adj (4 * i)) - r in
      let o = if o < 0 then o + n else o in
      if o < bound && o > !best then best := o
    done;
    let x = r + !best in
    if x >= n then x - n else x
  in
  (* The first hop from a point off the ring, by the same rule over
     point distances: [suc] of the source when the key falls before
     it, else the farthest neighbour short of the key. *)
  let first_off ~src ~key =
    let s = Ring.successor_rank ring src in
    let dkey = Point.distance_cw src key in
    if dkey > 0 && dkey <= Point.distance_cw src (Ring.nth ring s) then s
    else begin
      let best_u = ref s and best_d = ref (-1) in
      List.iter
        (fun u ->
          let d = Point.distance_cw src u in
          if d > 0 && d < dkey && d > !best_d then begin
            best_u := Ring.rank ring u;
            best_d := d
          end)
        (neighbors_of ring src);
      !best_u
    end
  in
  let run ~src ~key visit st =
    let resp = Ring.successor_rank ring key in
    let r = Ring.rank ring src in
    if visit st r && r <> resp then begin
      let cur = ref (if r >= 0 then next r resp else first_off ~src ~key) in
      while visit st !cur && !cur <> resp do
        cur := next !cur resp
      done
    end
  in
  Overlay_intf.make ~ring ~off ~adj ~neighbors_in:neighbors_of ~walk:{ Overlay_intf.run }
    ~rebuild:make
