type t = { hkey : Sha256.hmac_key; label : string }

let u62_mask = Int64.sub (Int64.shift_left 1L 62) 1L

let make ~system_key ~label =
  (* Bind the label into the HMAC key so families are independent. *)
  let key = (Sha256.hmac ~key:system_key label :> string) in
  { hkey = Sha256.hmac_key key; label }

let label t = t.label

(* Every entry MACs the canonical big-endian encoding of its input:
   an [int64] is 8 bytes, an indexed pair 16. The [int64] halves are
   split with [Int64] operations so that bit 63 (set by PoW's
   [sigma lxor r]) lands in the high word; a native [int] is
   sign-extended to 64 bits first, as [Int64.of_int] would. *)
let hi32 v = Int64.to_int (Int64.shift_right_logical v 32)
let lo32 v = Int64.to_int v
let int_hi32 i = i asr 32

let query_string t s = Int64.of_int (Sha256.hmac62_string t.hkey s)

let query_u62 t v = Int64.of_int (Sha256.hmac62_words2 t.hkey (hi32 v) (lo32 v))

let query_indexed t w i =
  Int64.of_int (Sha256.hmac62_words4 t.hkey (hi32 w) (lo32 w) (int_hi32 i) i)

let draw_indexed t w i = Sha256.hmac62_words4 t.hkey (int_hi32 w) w (int_hi32 i) i
