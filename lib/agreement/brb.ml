open Idspace

type behaviour = Silent | Random | Equivocate | Forge

type outcome = {
  delivered : int option array;
  deliveries : int array;
  messages : int;
  bits : int;
  dropped : int;
  rounds : int;
}

let tolerates ~n ~f = 3 * f < n

(* 2-bit tag + the 62-bit payload word. *)
let message_bits = 2 + 62

let benign_messages ~n = (n - 1) * ((2 * n) + 1)

let relay_messages ~group_size =
  group_size + (2 * group_size * (group_size - 1))

type msg = Send of int | Echo of int | Ready of int

(* Distinct-sender tallies per payload: Bracha's quorums count
   processes, so duplicate copies of the same (src, msg) — e.g. from
   the fault layer's duplication rule — must not inflate them. *)
type tally = { seen : bool array; mutable count : int }

let observe tbl ~n ~src payload =
  let t =
    match Hashtbl.find_opt tbl payload with
    | Some t -> t
    | None ->
        let t = { seen = Array.make n false; count = 0 } in
        Hashtbl.add tbl payload t;
        t
  in
  if not t.seen.(src) then begin
    t.seen.(src) <- true;
    t.count <- t.count + 1
  end;
  t.count

let quorum_payload tbl ~threshold =
  (* Deterministic pick: the smallest payload at quorum. *)
  Hashtbl.fold
    (fun p t best ->
      if t.count >= threshold then
        match best with Some b when b <= p -> best | _ -> Some p
      else best)
    tbl None

let run ?(conditions = Sim.Conditions.none) ?metrics rng ~n ~sender ~byzantine
    ~behaviour ~payload =
  if n <= 0 then invalid_arg "Brb.run: empty process set";
  if Array.length byzantine <> n then invalid_arg "Brb.run: array length mismatch";
  if sender < 0 || sender >= n then invalid_arg "Brb.run: sender out of range";
  let conds = Sim.Conditions.activate ?metrics conditions in
  let f = (n - 1) / 3 in
  let echo_quorum = ((n + f) / 2) + 1 in
  let ready_amplify = f + 1 in
  let deliver_quorum = (2 * f) + 1 in
  (* Process [i] is ring point [i + 1]: a stable address for fault
     plans (cuts, crashes, per-link rules) and circuit breakers. *)
  let pts = Array.init n (fun i -> Point.add_cw Point.zero (i + 1)) in
  let messages = ref 0 and bits = ref 0 and dropped = ref 0 in
  let round = ref 0 in
  let count_metric name k =
    match metrics with Some m -> Sim.Metrics.add m name k | None -> ()
  in
  (* Inboxes are per-round: sends land in [next], which becomes the
     round's input after the barrier — the synchronous network. *)
  let inbox : (int * msg) list array = Array.make n [] in
  let next : (int * msg) list array = Array.make n [] in
  let sent_this_round = ref false in
  let charge () =
    incr messages;
    bits := !bits + message_bits;
    count_metric Sim.Metrics.msg_agreement 1;
    count_metric Sim.Metrics.ba_bits_sent message_bits
  in
  let transmit ~src ~dst m =
    sent_this_round := true;
    if src = dst then next.(dst) <- (src, m) :: next.(dst)
    else if
      Sim.Conditions.transmit conds ~now:!round ~src:pts.(src) ~dst:pts.(dst) ~charge
    then next.(dst) <- (src, m) :: next.(dst)
    else incr dropped
  in
  let broadcast src m =
    for dst = 0 to n - 1 do
      transmit ~src ~dst m
    done
  in
  (* Correct-process state. *)
  let echoed = Array.make n false in
  let readied = Array.make n false in
  let delivered = Array.make n None in
  let deliveries = Array.make n 0 in
  let echoes = Array.init n (fun _ -> Hashtbl.create 4) in
  let readies = Array.init n (fun _ -> Hashtbl.create 4) in
  let forged = payload + 1 in
  let byz_payload i ~recipient =
    match behaviour with
    | Silent -> None
    | Random -> Some (if Prng.Rng.bool rng then payload else forged)
    | Equivocate -> Some (if i = sender && recipient < n / 2 then payload else forged)
    | Forge -> Some forged
  in
  (* Round 0: the sender broadcasts SEND. *)
  if byzantine.(sender) then begin
    match behaviour with
    | Silent | Forge -> ()
    | Random | Equivocate ->
        for dst = 0 to n - 1 do
          match byz_payload sender ~recipient:dst with
          | Some p -> transmit ~src:sender ~dst (Send p)
          | None -> ()
        done
  end
  else broadcast sender (Send payload);
  let deliver i p =
    deliveries.(i) <- deliveries.(i) + 1;
    (match metrics with
    | Some m -> Sim.Metrics.incr m Sim.Metrics.brb_delivered
    | None -> ());
    if delivered.(i) = None then delivered.(i) <- Some p
  in
  let handle i (src, m) =
    match m with
    | Send p ->
        if src = sender && not echoed.(i) then begin
          echoed.(i) <- true;
          broadcast i (Echo p)
        end
    | Echo p ->
        let c = observe echoes.(i) ~n ~src p in
        if (not readied.(i)) && c >= echo_quorum then begin
          readied.(i) <- true;
          broadcast i (Ready p)
        end
    | Ready p ->
        let c = observe readies.(i) ~n ~src p in
        if (not readied.(i)) && c >= ready_amplify then begin
          readied.(i) <- true;
          broadcast i (Ready p)
        end;
        if c >= deliver_quorum && delivered.(i) = None then deliver i p
  in
  (* Quiescence bounds the loop (the cap is a backstop against
     adversarial chatter), but the first three rounds always run:
     Byzantine processes chatter on the correct schedule (echoes in
     round 1, readies in round 2) even when a silent sender left the
     network idle — the Forge behaviour's whole point. *)
  let max_rounds = 8 in
  let finished = ref false in
  while (not !finished) && !round < max_rounds do
    incr round;
    Array.blit next 0 inbox 0 n;
    Array.fill next 0 n [];
    sent_this_round := false;
    for i = 0 to n - 1 do
      let ms = List.rev inbox.(i) in
      inbox.(i) <- [];
      if not byzantine.(i) then List.iter (handle i) ms
      else begin
        if !round = 1 && behaviour <> Silent then
          for dst = 0 to n - 1 do
            match byz_payload i ~recipient:dst with
            | Some p -> transmit ~src:i ~dst (Echo p)
            | None -> ()
          done;
        if !round = 2 && behaviour <> Silent then
          for dst = 0 to n - 1 do
            let p =
              match behaviour with
              | Random -> byz_payload i ~recipient:dst
              | Silent -> None
              | Equivocate | Forge -> Some forged
            in
            match p with Some p -> transmit ~src:i ~dst (Ready p) | None -> ()
          done
      end
    done;
    (* A correct process that reached an echo quorum only through
       messages of this round already broadcast its READY above; a
       late quorum assembled across rounds is caught the same way. *)
    for i = 0 to n - 1 do
      if not byzantine.(i) then begin
        (if not readied.(i) then
           match quorum_payload echoes.(i) ~threshold:echo_quorum with
           | Some p ->
               readied.(i) <- true;
               broadcast i (Ready p)
           | None -> ());
        if delivered.(i) = None then
          match quorum_payload readies.(i) ~threshold:deliver_quorum with
          | Some p -> deliver i p
          | None -> ()
      end
    done;
    finished := (not !sent_this_round) && !round >= 3
  done;
  {
    delivered = Array.mapi (fun i p -> if byzantine.(i) then None else p) delivered;
    deliveries;
    messages = !messages;
    bits = !bits;
    dropped = !dropped;
    rounds = !round;
  }
