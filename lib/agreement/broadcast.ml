type 'a result = {
  delivered : 'a option array;
  messages : int;
}

let send ~sender_good ~receiver_count ~value ~forge =
  let g1 = Array.length sender_good in
  if g1 = 0 then invalid_arg "Broadcast.send: empty sender group";
  if receiver_count <= 0 then invalid_arg "Broadcast.send: no receivers";
  let messages = ref 0 in
  let delivered =
    Array.init receiver_count (fun j ->
        (* Tally what recipient [j] hears from each sender. *)
        let tally : ('a, int) Hashtbl.t = Hashtbl.create 8 in
        let heard = ref 0 in
        for i = 0 to g1 - 1 do
          let m = if sender_good.(i) then Some value else forge ~recipient:j in
          match m with
          | Some v ->
              incr messages;
              incr heard;
              let c = Option.value ~default:0 (Hashtbl.find_opt tally v) in
              Hashtbl.replace tally v (c + 1)
          | None -> ()
        done;
        ignore !heard;
        (* Strict majority over the full sender-group size: silence
           cannot manufacture a quorum. *)
        let winner =
          Hashtbl.fold
            (fun v c best ->
              match best with Some (_, bc) when bc >= c -> best | _ -> Some (v, c))
            tally None
        in
        match winner with
        | Some (v, c) when 2 * c > g1 -> Some v
        | _ -> None)
  in
  { delivered; messages = !messages }
