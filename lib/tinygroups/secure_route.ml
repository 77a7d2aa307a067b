open Idspace

type failure_notion = [ `Conservative | `Majority ]

type outcome = {
  result : (Point.t, Point.t) Stdlib.result;
  group_path : Point.t list;
  messages : int;
}

type verdict = { ok : bool; messages : int; hops : int; stop : Point.t }

(* The state of one search, threaded through the overlay's rank walk
   (the walk calls [visit] with it, so no closure is built per
   search). [prev] is the previous group's size, -1 before the source
   group. *)
type walker = {
  g : Group_graph.t;
  failure : failure_notion;
  iterative : bool;
  mutable src_size : int;
  mutable prev : int;
  mutable messages_ : int;
  mutable hops_ : int;
  mutable last : int;
  mutable blocked : bool;
}

(* One hop onto the group of rank [r]: price the exchange that reaches
   it — recursive forwarding costs [|G_prev| * |G_r|], the iterative
   round trip [2 * |G_src| * |G_r|] — and stop at a blocking group. *)
let visit w r =
  if r < 0 then raise Not_found;
  let size = Group.size (Group_graph.group_at w.g r) in
  if w.prev < 0 then w.src_size <- size
  else
    w.messages_ <-
      (w.messages_ + if w.iterative then 2 * w.src_size * size else w.prev * size);
  w.prev <- size;
  w.hops_ <- w.hops_ + 1;
  w.last <- r;
  w.blocked <-
    (match w.failure with
    | `Conservative -> Group_graph.red_at w.g r
    | `Majority -> Group_graph.hijacked_at w.g r);
  not w.blocked

let walker g ~failure ~iterative =
  {
    g;
    failure;
    iterative;
    src_size = 0;
    prev = -1;
    messages_ = 0;
    hops_ = 0;
    last = -1;
    blocked = false;
  }

let run w ~src ~key visit st =
  (Group_graph.overlay w.g).Overlay.Overlay_intf.walk.run ~src ~key visit st

let stop_point w = Ring.nth (Group_graph.overlay w.g).Overlay.Overlay_intf.ring w.last

let verdict g ~failure ~src ~key =
  let w = walker g ~failure ~iterative:false in
  run w ~src ~key visit w;
  { ok = not w.blocked; messages = w.messages_; hops = w.hops_; stop = stop_point w }

(* [search] also collects the leaders it visits. *)
type recorder = { w : walker; mutable path : Point.t list }

let visit_recording rc r =
  let go = visit rc.w r in
  rc.path <- Ring.nth (Group_graph.overlay rc.w.g).Overlay.Overlay_intf.ring r :: rc.path;
  go

let search_with g ~failure ~iterative ~src ~key =
  let rc = { w = walker g ~failure ~iterative; path = [] } in
  run rc.w ~src ~key visit_recording rc;
  let p = stop_point rc.w in
  {
    result = (if rc.w.blocked then Error p else Ok p);
    group_path = List.rev rc.path;
    messages = rc.w.messages_;
  }

(* Recursive: each group hands off to the next with one all-to-all
   exchange across the edge. *)
let search g ~failure ~src ~key = search_with g ~failure ~iterative:false ~src ~key

(* Iterative: the source group round-trips with every hop group. *)
let search_iterative g ~failure ~src ~key = search_with g ~failure ~iterative:true ~src ~key

let succeeded o = match o.result with Ok _ -> true | Error _ -> false

let expected_route_cost g ~hops =
  let m = Group_graph.mean_group_size g in
  float_of_int hops *. m *. m
