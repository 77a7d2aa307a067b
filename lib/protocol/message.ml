open Idspace

type search_request = {
  qid : int;
  key : Point.t;
  stage : Point.t;
  client : Point.t;
  sender_member : Point.t option;
  sender_group : Point.t option;
  sender_count : int;
}

type search_reply = {
  qid : int;
  responsible : Point.t;
  responder_count : int;
}

type t =
  | Search_request of search_request
  | Search_reply of search_reply

let pp fmt = function
  | Search_request r ->
      Format.fprintf fmt "req#%d key=%a stage=%a (quorum base %d)" r.qid Point.pp r.key
        Point.pp r.stage r.sender_count
  | Search_reply r ->
      Format.fprintf fmt "reply#%d responsible=%a (of %d)" r.qid Point.pp r.responsible
        r.responder_count
