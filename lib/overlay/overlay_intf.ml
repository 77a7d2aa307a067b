(** The abstract input graph [H] of the paper (§I-C).

    Any DHT-style topology satisfying P1–P4 can serve as the skeleton
    of the group-graph construction:

    - {b P1 (search)}: [route ~src ~key] returns the full search path —
      the IDs traversed, starting at [src] and ending at the ID
      responsible for [key] (its successor on the ring) — of length
      [O(log N)].
    - {b P2 (load balance)}: each ID is responsible for a
      [(1+o(1))/N] fraction of the key space (a property of u.a.r.
      placement, measured by {!Probe}).
    - {b P3 (linking rules)}: [neighbors id] is the deterministic set
      [S_id] derivable by any participant from the ring alone, so
      membership/neighbour claims are verifiable.
    - {b P4 (congestion)}: a random search traverses any fixed ID with
      probability [O(log^c N / N)] (measured by {!Probe}).

    Values of this type are immutable views over an immutable
    {!Idspace.Ring.t}: rebuilding after churn means building a fresh
    value, mirroring the paper's epoch-based reconstruction. Each view
    carries its own [rebuild], so churn keeps the construction and its
    parameters (e.g. a Chord++ salt) without knowing which one it is.

    {b Rank space.} A construction works on ring ranks (sorted
    positions, {!Idspace.Ring.nth}). At [make] it applies its linking
    rule to every ID once and stores the result as a CSR table: rank
    [r]'s neighbours are the ranks [adj.(off.(r)) .. adj.(off.(r+1)-1)],
    ascending, 32-bit entries in one [Bytes] buffer that the GC never
    scans. Its route is a rank walk ({!walk}) that reads the table and
    allocates nothing. [neighbors], [route], {!is_neighbor}
    and {!path_ok} are derived from the table and the walk here, by
    {!make}, once for every construction. *)

open Idspace

type walk = { run : 's. src:Point.t -> key:Point.t -> ('s -> int -> bool) -> 's -> unit }
(** The route in rank space: [run ~src ~key visit st] calls
    [visit st r] for the rank [r] of every ID on the path from [src]
    to [suc key], in order, starting with [src]'s own rank ([-1] when
    [src] is not an ID of the ring), and stops early as soon as
    [visit] returns [false]. Consecutive ranks are links. The walk
    itself allocates nothing. *)

type t = {
  ring : Ring.t;  (** The ID population the graph is built over. *)
  off : int array;
      (** Row offsets of the neighbour table, length [n + 1]:
          rank [r]'s row is entries [off.(r) .. off.(r+1) - 1]. *)
  adj : Bytes.t;
      (** The neighbour ranks, 32-bit native-endian entries
          ({!table_get}), each row ascending. *)
  neighbors : Point.t -> Point.t list;
      (** [neighbors id] is [S_id]: the linking rule applied to [id],
          in ascending ring order. Read from the table for an ID of
          the ring; computed by [neighbors_in ring] for any other
          point. Duplicates removed; never contains [id] itself unless
          the ring is a singleton. *)
  neighbors_in : Ring.t -> Point.t -> Point.t list;
      (** [neighbors_in ring' id] applies the same linking rule against
          an arbitrary [ring'], with no table — value-identical to
          [(rebuild ring').neighbors id]. Batched membership changes
          query growing ring states through this instead of rebuilding
          a view per change. *)
  walk : walk;  (** The route in rank space. *)
  route : src:Point.t -> key:Point.t -> Point.t list;
      (** [route ~src ~key] is the inclusive search path from [src] to
          [suc key]: the points of [walk]. Every consecutive pair is a
          (directed) neighbour link. *)
  rebuild : Ring.t -> t;
      (** [rebuild ring'] is the same construction, with the same
          parameters, over [ring']: the reconstruction after churn. *)
}

(** Table entries are ranks below 2^31, stored as native-endian
    32-bit ints at byte offset [4 * i]; only this process reads them
    back. Entry [i] is [Int32.to_int (get32 adj (4 * i))], a rank in
    row [r] when [off.(r) <= i < off.(r+1)]. These are externals, so a
    loop in any module reads the table inline; {!table_get} is the same
    read as a function. *)
external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"

external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

let table_get adj i = Int32.to_int (get32 adj (4 * i))

(** [table_create entries] is an uninitialised buffer for [entries]
    entries; constructions fill it with [set32]. *)
let table_create entries = Bytes.create (4 * entries)

(** [make ~ring ~off ~adj ~neighbors_in ~walk ~rebuild] is
    the view whose [neighbors] and [route] are read from the table and
    the walk. Every construction builds its value through this. *)
let make ~ring ~off ~adj ~neighbors_in ~walk ~rebuild =
  let neighbors w =
    let r = Ring.rank ring w in
    if r < 0 then neighbors_in ring w
    else begin
      let acc = ref [] in
      for i = off.(r + 1) - 1 downto off.(r) do
        acc := Ring.nth ring (table_get adj i) :: !acc
      done;
      !acc
    end
  in
  let route ~src ~key =
    let path = ref [] in
    walk.run ~src ~key
      (fun () r ->
        path := (if r < 0 then src else Ring.nth ring r) :: !path;
        true)
      ();
    List.rev !path
  in
  { ring; off; adj; neighbors; neighbors_in; walk; route; rebuild }

let responsible t key = Ring.successor_exn t.ring key

(** [is_neighbor t u w] checks the linking rule: is [u] in [S_w]? This
    is the verification primitive of P3 used when vetting
    group-membership and neighbour requests. *)
let is_neighbor t u w =
  let rw = Ring.rank t.ring w in
  if rw < 0 then List.exists (Point.equal u) (t.neighbors w)
  else begin
    let ru = Ring.rank t.ring u in
    let found = ref false and i = ref t.off.(rw) in
    while (not !found) && !i < t.off.(rw + 1) do
      found := table_get t.adj !i = ru;
      incr i
    done;
    !found
  end

(** [path_ok t path key] validates a claimed search path: non-empty,
    consecutive hops are links, and it ends at the responsible ID. *)
let path_ok t path key =
  match path with
  | [] -> false
  | first :: _ ->
      let rec hops_linked = function
        | a :: (b :: _ as rest) -> is_neighbor t b a && hops_linked rest
        | [ last ] -> Point.equal last (responsible t key)
        | [] -> false
      in
      Ring.mem first t.ring && hops_linked path
