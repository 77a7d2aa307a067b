type digest = string

(* The implementation works on native ints masked to 32 bits: on
   64-bit platforms every word of the schedule and the chaining state
   fits untagged in an [int], so [compress_words] allocates nothing — the
   boxed [Int32] formulation it replaces allocated a box per
   intermediate, which dominated the oracle-heavy hot paths. *)

let m32 = 0xFFFFFFFF

(* Round constants: first 32 bits of the fractional parts of the cube
   roots of the first 64 primes (FIPS 180-4 §4.2.2). *)
let k =
  [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
     0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
     0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
     0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
     0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
     0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
     0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
     0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
     0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
     0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
     0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2 |]

type ctx = {
  h : int array; (* 8 chaining words, each in [0, 2^32) *)
  buf : Bytes.t; (* 64-byte block buffer *)
  mutable buf_len : int;
  mutable total : int; (* bytes absorbed *)
  w : int array; (* 64-entry message schedule, reused across blocks *)
}

let iv =
  [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c;
     0x1f83d9ab; 0x5be0cd19 |]

let init () =
  { h = Array.copy iv; buf = Bytes.create 64; buf_len = 0; total = 0; w = Array.make 64 0 }

(* A word [x < 2^32] is rotated by shifting its doubling
   [x lor (x lsl 32)]: bits [n .. n+31] of it are [x] rotated right
   by [n], for [n <= 31] (a 63-bit [int] keeps bits 0..30 of the upper
   copy). That leaves garbage above bit 31. Every stored word is
   masked to 32 bits, and the low 32 bits of a sum do not depend on
   the high bits of its terms, so one mask per stored word suffices. *)
let[@inline] double x = x lor (x lsl 32)

let[@inline] sigma0 x =
  let x2 = double x in
  (x2 lsr 7) lxor (x2 lsr 18) lxor (x lsr 3)

let[@inline] sigma1 x =
  let x2 = double x in
  (x2 lsr 17) lxor (x2 lsr 19) lxor (x lsr 10)

let[@inline] big_sigma0 a =
  let a2 = double a in
  (a2 lsr 2) lxor (a2 lsr 13) lxor (a2 lsr 22)

let[@inline] big_sigma1 e =
  let e2 = double e in
  (e2 lsr 6) lxor (e2 lsr 11) lxor (e2 lsr 25)

let[@inline] ch e f g = g lxor (e land (f lxor g))
let[@inline] maj a b c = a land b lor (c land (a lor b))
let[@inline] kw w t = Array.unsafe_get k t + Array.unsafe_get w t

(* One compression of the 16-word block [w.(0..15)] into the chaining
   state [h], in place. The schedule [w.(16..63)] is built in place
   too; [w.(0..15)] is left as it was. The 64 rounds run 8 at a time
   with the roles of a..h rotated, so each round stores only the two
   words it changes (d and h of the textbook round). *)
let compress_words h w =
  for t = 16 to 63 do
    Array.unsafe_set w t
      ((Array.unsafe_get w (t - 16)
       + sigma0 (Array.unsafe_get w (t - 15))
       + Array.unsafe_get w (t - 7)
       + sigma1 (Array.unsafe_get w (t - 2)))
      land m32)
  done;
  let a = ref (Array.unsafe_get h 0) and b = ref (Array.unsafe_get h 1) in
  let c = ref (Array.unsafe_get h 2) and d = ref (Array.unsafe_get h 3) in
  let e = ref (Array.unsafe_get h 4) and f = ref (Array.unsafe_get h 5) in
  let g = ref (Array.unsafe_get h 6) and hh = ref (Array.unsafe_get h 7) in
  let t = ref 0 in
  while !t < 64 do
    let i = !t in
    let t1 = !hh + big_sigma1 !e + ch !e !f !g + kw w i in
    d := (!d + t1) land m32;
    hh := (t1 + big_sigma0 !a + maj !a !b !c) land m32;
    let t1 = !g + big_sigma1 !d + ch !d !e !f + kw w (i + 1) in
    c := (!c + t1) land m32;
    g := (t1 + big_sigma0 !hh + maj !hh !a !b) land m32;
    let t1 = !f + big_sigma1 !c + ch !c !d !e + kw w (i + 2) in
    b := (!b + t1) land m32;
    f := (t1 + big_sigma0 !g + maj !g !hh !a) land m32;
    let t1 = !e + big_sigma1 !b + ch !b !c !d + kw w (i + 3) in
    a := (!a + t1) land m32;
    e := (t1 + big_sigma0 !f + maj !f !g !hh) land m32;
    let t1 = !d + big_sigma1 !a + ch !a !b !c + kw w (i + 4) in
    hh := (!hh + t1) land m32;
    d := (t1 + big_sigma0 !e + maj !e !f !g) land m32;
    let t1 = !c + big_sigma1 !hh + ch !hh !a !b + kw w (i + 5) in
    g := (!g + t1) land m32;
    c := (t1 + big_sigma0 !d + maj !d !e !f) land m32;
    let t1 = !b + big_sigma1 !g + ch !g !hh !a + kw w (i + 6) in
    f := (!f + t1) land m32;
    b := (t1 + big_sigma0 !c + maj !c !d !e) land m32;
    let t1 = !a + big_sigma1 !f + ch !f !g !hh + kw w (i + 7) in
    e := (!e + t1) land m32;
    a := (t1 + big_sigma0 !b + maj !b !c !d) land m32;
    t := i + 8
  done;
  Array.unsafe_set h 0 ((Array.unsafe_get h 0 + !a) land m32);
  Array.unsafe_set h 1 ((Array.unsafe_get h 1 + !b) land m32);
  Array.unsafe_set h 2 ((Array.unsafe_get h 2 + !c) land m32);
  Array.unsafe_set h 3 ((Array.unsafe_get h 3 + !d) land m32);
  Array.unsafe_set h 4 ((Array.unsafe_get h 4 + !e) land m32);
  Array.unsafe_set h 5 ((Array.unsafe_get h 5 + !f) land m32);
  Array.unsafe_set h 6 ((Array.unsafe_get h 6 + !g) land m32);
  Array.unsafe_set h 7 ((Array.unsafe_get h 7 + !hh) land m32)

let compress ctx block off =
  let w = ctx.w in
  for t = 0 to 15 do
    let base = off + (4 * t) in
    Array.unsafe_set w t
      ((Char.code (Bytes.unsafe_get block base) lsl 24)
      lor (Char.code (Bytes.unsafe_get block (base + 1)) lsl 16)
      lor (Char.code (Bytes.unsafe_get block (base + 2)) lsl 8)
      lor Char.code (Bytes.unsafe_get block (base + 3)))
  done;
  compress_words ctx.h w

let feed_sub ctx src pos len =
  ctx.total <- ctx.total + len;
  let pos = ref pos and len = ref len in
  (* Top up a partially filled block first. *)
  if ctx.buf_len > 0 then begin
    let take = min !len (64 - ctx.buf_len) in
    Bytes.blit_string src !pos ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := !pos + take;
    len := !len - take;
    if ctx.buf_len = 64 then begin
      compress ctx ctx.buf 0;
      ctx.buf_len <- 0
    end
  end;
  while !len >= 64 do
    Bytes.blit_string src !pos ctx.buf 0 64;
    compress ctx ctx.buf 0;
    pos := !pos + 64;
    len := !len - 64
  done;
  if !len > 0 then begin
    Bytes.blit_string src !pos ctx.buf 0 !len;
    ctx.buf_len <- !len
  end

let feed_string ctx s = feed_sub ctx s 0 (String.length s)

let finalize ctx =
  let bit_len = ctx.total * 8 in
  (* Append 0x80, zero-pad to 56 mod 64, then the 64-bit length — all
     inside the block buffer, compressing as it fills. *)
  let put byte =
    Bytes.unsafe_set ctx.buf ctx.buf_len (Char.unsafe_chr byte);
    ctx.buf_len <- ctx.buf_len + 1;
    if ctx.buf_len = 64 then begin
      compress ctx ctx.buf 0;
      ctx.buf_len <- 0
    end
  in
  put 0x80;
  while ctx.buf_len <> 56 do
    put 0x00
  done;
  for i = 7 downto 0 do
    put ((bit_len lsr (8 * i)) land 0xFF)
  done;
  assert (ctx.buf_len = 0);
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    let word = ctx.h.(i) in
    Bytes.unsafe_set out (4 * i) (Char.unsafe_chr ((word lsr 24) land 0xFF));
    Bytes.unsafe_set out ((4 * i) + 1) (Char.unsafe_chr ((word lsr 16) land 0xFF));
    Bytes.unsafe_set out ((4 * i) + 2) (Char.unsafe_chr ((word lsr 8) land 0xFF));
    Bytes.unsafe_set out ((4 * i) + 3) (Char.unsafe_chr (word land 0xFF))
  done;
  Bytes.unsafe_to_string out

let digest_string s =
  let ctx = init () in
  feed_string ctx s;
  finalize ctx

let digest_bytes b = digest_string (Bytes.to_string b)

let to_raw d = d

let hex_chars = "0123456789abcdef"

let to_hex d =
  let out = Bytes.create 64 in
  String.iteri
    (fun i c ->
      let v = Char.code c in
      Bytes.set out (2 * i) hex_chars.[v lsr 4];
      Bytes.set out ((2 * i) + 1) hex_chars.[v land 0xF])
    d;
  Bytes.unsafe_to_string out

let prefix_int64 d =
  let acc = ref 0L in
  for i = 0 to 7 do
    acc := Int64.logor (Int64.shift_left !acc 8) (Int64.of_int (Char.code d.[i]))
  done;
  !acc

(* HMAC with the two pad blocks pre-absorbed: an [hmac_key] stores the
   chaining states after compressing [key ^ ipad] and [key ^ opad], so
   each MAC costs exactly the compressions of the message and the
   32-byte inner digest. States are immutable once built — safe to
   share across domains. *)
type hmac_key = { ipad_state : int array; opad_state : int array }

let hmac_key key =
  let block = 64 in
  let key = if String.length key > block then digest_string key else key in
  let absorb fill =
    let b = Bytes.make block fill in
    String.iteri (fun i c -> Bytes.set b i (Char.chr (Char.code c lxor Char.code fill))) key;
    let ctx = init () in
    compress ctx b 0;
    ctx.h
  in
  { ipad_state = absorb '\x36'; opad_state = absorb '\x5c' }

let hmac_feed state =
  let ctx = init () in
  Array.blit state 0 ctx.h 0 8;
  ctx.total <- 64;
  ctx

let hmac_with hkey msg =
  let ctx = hmac_feed hkey.ipad_state in
  feed_string ctx msg;
  let inner = finalize ctx in
  let ctx = hmac_feed hkey.opad_state in
  feed_string ctx inner;
  finalize ctx

let hmac ~key msg = hmac_with (hmac_key key) msg

(* The allocation-free MAC entry. Each domain owns one scratch: a
   64-word schedule and an 8-word chaining state. The message is
   written straight into the schedule as big-endian words, padding
   and bit length included (the ipad block counts 64 bytes), then the
   inner and outer compressions run from the pre-absorbed pad states.
   [build_direct] and [Epoch.build_next] fan draws out over domains,
   so the scratch must not be shared between them. *)
type scratch = { sw : int array; ss : int array }

let scratch_key = Domain.DLS.new_key (fun () -> { sw = Array.make 64 0; ss = Array.make 8 0 })

let u62 = (1 lsl 62) - 1

let copy8 dst src =
  for i = 0 to 7 do
    Array.unsafe_set dst i (Array.unsafe_get src i)
  done

(* Pads the [n]-word message in [w.(0..n-1)], which follows a
   64-byte pad block: a 1 bit, zeros, the 64-bit bit length. *)
let pad_words w n =
  Array.unsafe_set w n 0x80000000;
  for i = n + 1 to 14 do
    Array.unsafe_set w i 0
  done;
  Array.unsafe_set w 15 ((64 + (4 * n)) * 8)

(* Byte [i] of a big-endian word array. *)
let[@inline] or_byte w i byte =
  let j = i lsr 2 in
  Array.unsafe_set w j (Array.unsafe_get w j lor (byte lsl (24 - (8 * (i land 3)))))

(* [w.(0..15)] holds the padded one-block inner message. *)
let mac62 hkey { sw = w; ss = s } =
  copy8 s hkey.ipad_state;
  compress_words s w;
  copy8 w s;
  pad_words w 8;
  copy8 s hkey.opad_state;
  compress_words s w;
  ((Array.unsafe_get s 0 lsl 32) lor Array.unsafe_get s 1) land u62

let hmac62_words2 hkey w0 w1 =
  let sc = Domain.DLS.get scratch_key in
  let w = sc.sw in
  Array.unsafe_set w 0 (w0 land m32);
  Array.unsafe_set w 1 (w1 land m32);
  pad_words w 2;
  mac62 hkey sc

let hmac62_words4 hkey w0 w1 w2 w3 =
  let sc = Domain.DLS.get scratch_key in
  let w = sc.sw in
  Array.unsafe_set w 0 (w0 land m32);
  Array.unsafe_set w 1 (w1 land m32);
  Array.unsafe_set w 2 (w2 land m32);
  Array.unsafe_set w 3 (w3 land m32);
  pad_words w 4;
  mac62 hkey sc

let hmac62_string hkey msg =
  let len = String.length msg in
  if len > 55 then Int64.to_int (prefix_int64 (hmac_with hkey msg)) land u62
  else begin
    let sc = Domain.DLS.get scratch_key in
    let w = sc.sw in
    Array.fill w 0 16 0;
    for i = 0 to len - 1 do
      or_byte w i (Char.code (String.unsafe_get msg i))
    done;
    or_byte w len 0x80;
    Array.unsafe_set w 15 ((64 + len) * 8);
    mac62 hkey sc
  end
