open Adversary

let log_src = Logs.Src.create "randstring.propagate" ~doc:"Global random-string protocol"

module Log = (val Logs.src_log log_src : Logs.LOG)

type transport = Flood | Brb_routed

type config = {
  d_prime : float;
  b : float;
  c0 : float;
  d0 : float;
  delay_release : bool;
  transport : transport;
}

let default_config =
  { d_prime = 2.; b = 1.; c0 = 2.; d0 = 2.; delay_release = true; transport = Flood }

type result = {
  participants : int;
  agreement : bool;
  agreement_violations : int;
  solution_set_sizes : Stats.Descriptive.summary;
  min_output : float;
  forwards : int;
  messages : int;
  rounds : int;
}

(* The communication graph: non-hijacked groups, linked per the
   overlay; returns every leader (index = ring rank), adjacency lists,
   and the largest connected component. The overlay's table rows are
   in the graph's ranks already. *)
let component graph =
  let open Tinygroups in
  let leaders = Group_graph.leaders graph in
  let n = Array.length leaders in
  let alive = Array.init n (fun i -> not (Group_graph.hijacked_at graph i)) in
  let adj = Array.make n [] in
  let { Overlay.Overlay_intf.off; adj = table; _ } = Group_graph.overlay graph in
  for i = 0 to n - 1 do
    if alive.(i) then
      for e = off.(i) to off.(i + 1) - 1 do
        let j = Overlay.Overlay_intf.table_get table e in
        if alive.(j) then begin
          adj.(i) <- j :: adj.(i);
          adj.(j) <- i :: adj.(j)
        end
      done
  done;
  let adj = Array.map (List.sort_uniq compare) adj in
  (* Largest component among alive nodes. *)
  let comp = Array.make n (-1) in
  let best_comp = ref (-1) and best_size = ref 0 and next = ref 0 in
  let queue = Queue.create () in
  Array.iteri
    (fun i _ ->
      if alive.(i) && comp.(i) < 0 then begin
        let c = !next in
        incr next;
        let size = ref 0 in
        Queue.push i queue;
        comp.(i) <- c;
        while not (Queue.is_empty queue) do
          let v = Queue.pop queue in
          incr size;
          List.iter
            (fun u ->
              if comp.(u) < 0 then begin
                comp.(u) <- c;
                Queue.push u queue
              end)
            adj.(v)
        done;
        if !size > !best_size then begin
          best_size := !size;
          best_comp := c
        end
      end)
    leaders;
  let in_giant = Array.mapi (fun i _ -> alive.(i) && comp.(i) = !best_comp) leaders in
  (leaders, adj, in_giant)

(* Smallest [k] of [m] uniforms, via exponential spacings. *)
let adversary_outputs rng ~evals ~k =
  let m = float_of_int (max 1 evals) in
  let acc = ref 0. in
  Array.init k (fun _ ->
      acc := !acc +. Prng.Rng.exponential rng 1.0;
      Float.min 0.999999 (Float.max 1e-18 (!acc /. m)))

let run rng graph ~epoch_steps config =
  let open Tinygroups in
  let leaders, adj, in_giant = component graph in
  let n = Array.length leaders in
  let pop = Group_graph.population graph in
  let ln_n = log (float_of_int (max 3 n)) in
  let rounds_per_phase = max 1 (int_of_float (ceil (config.d_prime *. ln_n))) in
  let is_participant =
    Array.mapi (fun i w -> in_giant.(i) && not (Population.is_bad pop w)) leaders
  in
  let group_size = Array.init n (fun i -> Group.size (Group_graph.group_at graph i)) in
  (* Per-node filter state and per-round outboxes. *)
  let bins =
    Array.map
      (fun _ -> Bins.create ~n ~t_steps:epoch_steps ~b:config.b ~c0:config.c0)
      leaders
  in
  let outbox : Bins.item list array = Array.make n [] in
  let forwards = ref 0 and messages = ref 0 in
  (* Phase 1: generation. Each participant's minimum over its
     evaluation budget, sampled directly from the min-of-uniforms
     law. *)
  let gen_evals = max 1 ((epoch_steps / 2) - (2 * rounds_per_phase)) in
  Array.iteri
    (fun i _ ->
      if is_participant.(i) then begin
        let u = Prng.Rng.float rng in
        let output =
          Float.min 0.999999
            (Float.max 1e-18 (1. -. exp (log1p (-.u) /. float_of_int gen_evals)))
        in
        let item = { Bins.output; tag = i; from_adversary = false } in
        if Bins.offer bins.(i) item then outbox.(i) <- [ item ]
      end)
    leaders;
  (* The adversary's strings: its best outputs over its full budget. *)
  let adv_evals =
    let beta = (Group_graph.params graph).Params.beta in
    int_of_float
      (beta /. (1. -. beta) *. float_of_int n *. float_of_int epoch_steps *. 1.5)
  in
  let adv_count = Bins.create ~n ~t_steps:epoch_steps ~b:config.b ~c0:config.c0 |> Bins.cap in
  let adv_items =
    Array.to_list
      (Array.mapi
         (fun idx output -> { Bins.output; tag = n + idx; from_adversary = true })
         (adversary_outputs rng ~evals:adv_evals ~k:(adv_count + 2)))
  in
  let participants_idx =
    Array.to_list
      (Array.of_seq
         (Seq.filter (fun i -> is_participant.(i)) (Seq.init n (fun i -> i))))
  in
  let inject items =
    match participants_idx with
    | [] -> ()
    | _ ->
        let arr = Array.of_list participants_idx in
        List.iter
          (fun item ->
            let victim = arr.(Prng.Rng.int rng (Array.length arr)) in
            if Bins.offer bins.(victim) item then
              outbox.(victim) <- item :: outbox.(victim))
          items
  in
  if not config.delay_release then inject adv_items;
  (* Phases 2 and 3: synchronous flooding rounds with the bin filter. *)
  let total_rounds = 2 * rounds_per_phase in
  let s_star = Array.make n None in
  for round = 1 to total_rounds do
    (* The split attack: release record strings to single victims at
       the last possible moment of Phase 2. *)
    if config.delay_release && round = rounds_per_phase then inject adv_items;
    let next_outbox = Array.make n [] in
    Array.iteri
      (fun i items ->
        if items <> [] then
          List.iter
            (fun j ->
              List.iter
                (fun item ->
                  incr forwards;
                  (* Per-forward transport cost: the flood transport
                     expands a group-to-group hand-off into the
                     |G_i| x |G_j| all-to-all exchange; the BRB-routed
                     transport has the sender's leader SEND into G_j
                     and G_j run the echo/ready rounds internally —
                     reliable delivery whose guarantees the law suite
                     (test_brb.ml) establishes, at the relay cost's
                     constant factor. The filter dynamics are
                     transport-independent, so only the cost column
                     moves. *)
                  (messages :=
                     !messages
                     +
                     match config.transport with
                     | Flood -> group_size.(i) * group_size.(j)
                     | Brb_routed ->
                         Agreement.Brb.relay_messages ~group_size:group_size.(j));
                  if is_participant.(j) && Bins.offer bins.(j) item then
                    next_outbox.(j) <- item :: next_outbox.(j))
                items)
            adj.(i))
      outbox;
    Array.blit next_outbox 0 outbox 0 n;
    if round = rounds_per_phase then
      (* End of Phase 2: everyone fixes the string that will sign its
         next identifier. *)
      List.iter (fun i -> s_star.(i) <- Bins.min_item bins.(i)) participants_idx
  done;
  (* Solution sets and the agreement property. *)
  let solution_size = max 1 (int_of_float (ceil (config.d0 *. ln_n))) in
  let solutions =
    List.map
      (fun i ->
        let set = Bins.solution_set bins.(i) ~size:solution_size in
        (i, List.fold_left (fun acc it -> it.Bins.tag :: acc) [] set))
      participants_idx
  in
  let module Iset = Set.Make (Int) in
  let solution_sets = List.map (fun (i, tags) -> (i, Iset.of_list tags)) solutions in
  (* Distinct s* tags and how many participants hold each. *)
  let star_holders : (int, int) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun i ->
      match s_star.(i) with
      | Some it ->
          Hashtbl.replace star_holders it.Bins.tag
            (1 + Option.value ~default:0 (Hashtbl.find_opt star_holders it.Bins.tag))
      | None -> ())
    participants_idx;
  let violations = ref 0 in
  Hashtbl.iter
    (fun tag holders ->
      List.iter
        (fun (_, set) -> if not (Iset.mem tag set) then violations := !violations + holders)
        solution_sets)
    star_holders;
  let sizes =
    Array.of_list (List.map (fun (_, set) -> float_of_int (Iset.cardinal set)) solution_sets)
  in
  let min_output =
    List.fold_left
      (fun acc i ->
        match Bins.min_item bins.(i) with
        | Some it -> Float.min acc it.Bins.output
        | None -> acc)
      infinity participants_idx
  in
  Log.debug (fun m ->
      m "propagation: %d participants, %d rounds, %d forwards, agreement violations %d"
        (List.length participants_idx)
        total_rounds !forwards !violations);
  {
    participants = List.length participants_idx;
    agreement = !violations = 0;
    agreement_violations = !violations;
    solution_set_sizes =
      (if Array.length sizes = 0 then
         Stats.Descriptive.summarize [| 0. |]
       else Stats.Descriptive.summarize sizes);
    min_output;
    forwards = !forwards;
    messages = !messages;
    rounds = total_rounds;
  }
