(* SHA-256 against the FIPS 180-4 / NIST CAVP test vectors, plus
   incremental-hashing and HMAC (RFC 4231) checks. *)

let hex d = Hashing.Sha256.to_hex d

let check_digest name input expected =
  Alcotest.(check string) name expected (hex (Hashing.Sha256.digest_string input))

let test_empty () =
  check_digest "empty string" ""
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

let test_abc () =
  check_digest "abc" "abc"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"

let test_two_blocks () =
  check_digest "448-bit message" "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"

let test_896_bit () =
  check_digest "896-bit message"
    "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"
    "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"

let test_million_a () =
  check_digest "one million 'a'" (String.make 1_000_000 'a')
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"

let test_single_byte () =
  (* NIST CAVP byte-oriented short-message vector. *)
  check_digest "0xbd" "\xbd"
    "68325720aabd7c82f30f554b313d0570c95accbb7dc4b5aae11204c08ffe732b"

let test_padding_boundaries () =
  (* Lengths straddling the padding boundary; compare the one-shot
     digest against the incremental interface to cross-check both
     code paths. *)
  List.iter
    (fun len ->
      let s = String.init len (fun i -> Char.chr (i mod 256)) in
      let ctx = Hashing.Sha256.init () in
      Hashing.Sha256.feed_string ctx s;
      Alcotest.(check string)
        (Printf.sprintf "len %d one-shot = incremental" len)
        (hex (Hashing.Sha256.digest_string s))
        (hex (Hashing.Sha256.finalize ctx)))
    [ 0; 1; 54; 55; 56; 57; 63; 64; 65; 127; 128; 129; 1000 ]

let test_incremental_chunking () =
  let s = String.init 1000 (fun i -> Char.chr ((i * 7) mod 256)) in
  let whole = hex (Hashing.Sha256.digest_string s) in
  List.iter
    (fun chunk ->
      let ctx = Hashing.Sha256.init () in
      let pos = ref 0 in
      while !pos < String.length s do
        let len = min chunk (String.length s - !pos) in
        Hashing.Sha256.feed_string ctx (String.sub s !pos len);
        pos := !pos + len
      done;
      Alcotest.(check string)
        (Printf.sprintf "chunk size %d" chunk)
        whole
        (hex (Hashing.Sha256.finalize ctx)))
    [ 1; 3; 17; 64; 65; 333 ]

let test_digest_bytes () =
  let b = Bytes.of_string "abc" in
  Alcotest.(check string) "bytes = string"
    (hex (Hashing.Sha256.digest_string "abc"))
    (hex (Hashing.Sha256.digest_bytes b))

let test_prefix_int64 () =
  (* First 8 bytes of SHA-256("abc") = ba7816bf8f01cfea. *)
  let d = Hashing.Sha256.digest_string "abc" in
  Alcotest.(check int64) "prefix" 0xba7816bf8f01cfeaL (Hashing.Sha256.prefix_int64 d)

let test_to_raw_length () =
  let d = Hashing.Sha256.digest_string "anything" in
  Alcotest.(check int) "32 bytes" 32 (String.length (Hashing.Sha256.to_raw d))

(* RFC 4231 HMAC-SHA256 test vectors. *)

let test_hmac_rfc4231_case1 () =
  let key = String.make 20 '\x0b' in
  let d = Hashing.Sha256.hmac ~key "Hi There" in
  Alcotest.(check string) "case 1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7" (hex d)

let test_hmac_rfc4231_case2 () =
  let d = Hashing.Sha256.hmac ~key:"Jefe" "what do ya want for nothing?" in
  Alcotest.(check string) "case 2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843" (hex d)

let test_hmac_rfc4231_case3 () =
  let key = String.make 20 '\xaa' in
  let msg = String.make 50 '\xdd' in
  let d = Hashing.Sha256.hmac ~key msg in
  Alcotest.(check string) "case 3"
    "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe" (hex d)

let test_hmac_long_key () =
  (* RFC 4231 case 6: 131-byte key (must be hashed down first). *)
  let key = String.make 131 '\xaa' in
  let d = Hashing.Sha256.hmac ~key "Test Using Larger Than Block-Size Key - Hash Key First" in
  Alcotest.(check string) "case 6"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54" (hex d)

let test_hmac_key_separation () =
  let d1 = hex (Hashing.Sha256.hmac ~key:"k1" "msg") in
  let d2 = hex (Hashing.Sha256.hmac ~key:"k2" "msg") in
  Alcotest.(check bool) "different keys differ" true (d1 <> d2)

(* Properties. *)

let prop_hex_shape =
  QCheck.Test.make ~name:"hex digest is 64 lowercase hex chars" ~count:300
    QCheck.string (fun s ->
      let h = hex (Hashing.Sha256.digest_string s) in
      String.length h = 64
      && String.for_all (fun c -> (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) h)

let prop_deterministic =
  QCheck.Test.make ~name:"digest is a function" ~count:300 QCheck.string (fun s ->
      hex (Hashing.Sha256.digest_string s) = hex (Hashing.Sha256.digest_string s))

let prop_no_collisions_observed =
  QCheck.Test.make ~name:"distinct inputs get distinct digests" ~count:300
    QCheck.(pair string string)
    (fun (a, b) ->
      a = b || hex (Hashing.Sha256.digest_string a) <> hex (Hashing.Sha256.digest_string b))

let prop_incremental_agrees =
  QCheck.Test.make ~name:"split feeding agrees with one-shot" ~count:200
    QCheck.(pair string string)
    (fun (a, b) ->
      let ctx = Hashing.Sha256.init () in
      Hashing.Sha256.feed_string ctx a;
      Hashing.Sha256.feed_string ctx b;
      hex (Hashing.Sha256.finalize ctx) = hex (Hashing.Sha256.digest_string (a ^ b)))

(* The allocation-free oracle entry against the MAC it shortcuts:
   the low 62 bits of the first 8 bytes of [hmac_with]. *)

let mac_key = Hashing.Sha256.hmac_key "entry-law-key"

let reference62 msg =
  Int64.to_int (Hashing.Sha256.prefix_int64 (Hashing.Sha256.hmac_with mac_key msg))
  land ((1 lsl 62) - 1)

let be_words ws =
  let b = Bytes.create (4 * List.length ws) in
  List.iteri (fun i w -> Bytes.set_int32_be b (4 * i) (Int32.of_int w)) ws;
  Bytes.to_string b

let word = QCheck.map (fun v -> Int64.to_int (Int64.logand v 0xFFFF_FFFFL)) QCheck.int64

let prop_words4_law =
  QCheck.Test.make ~name:"hmac62_words4 = truncated hmac_with" ~count:500
    QCheck.(quad word word word word)
    (fun (a, b, c, d) ->
      Hashing.Sha256.hmac62_words4 mac_key a b c d = reference62 (be_words [ a; b; c; d ]))

let prop_words2_law =
  QCheck.Test.make ~name:"hmac62_words2 = truncated hmac_with" ~count:500
    QCheck.(pair word word)
    (fun (a, b) -> Hashing.Sha256.hmac62_words2 mac_key a b = reference62 (be_words [ a; b ]))

let prop_string_law =
  QCheck.Test.make ~name:"hmac62_string = truncated hmac_with (lengths 0..130)" ~count:500
    QCheck.(string_of_size (Gen.int_bound 130))
    (fun m -> Hashing.Sha256.hmac62_string mac_key m = reference62 m)

let test_string_entry_boundaries () =
  List.iter
    (fun len ->
      let m = String.init len (fun i -> Char.chr ((i * 13) land 0xFF)) in
      Alcotest.(check int) (Printf.sprintf "len %d" len) (reference62 m)
        (Hashing.Sha256.hmac62_string mac_key m))
    [ 0; 1; 3; 4; 5; 54; 55; 56; 63; 64; 119; 120 ]

let () =
  Alcotest.run "sha256"
    [
      ( "nist-vectors",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "abc" `Quick test_abc;
          Alcotest.test_case "two blocks" `Quick test_two_blocks;
          Alcotest.test_case "896 bits" `Quick test_896_bit;
          Alcotest.test_case "million a" `Slow test_million_a;
          Alcotest.test_case "single byte 0xbd" `Quick test_single_byte;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "padding boundaries" `Quick test_padding_boundaries;
          Alcotest.test_case "chunked feeding" `Quick test_incremental_chunking;
          Alcotest.test_case "digest_bytes" `Quick test_digest_bytes;
          Alcotest.test_case "prefix_int64" `Quick test_prefix_int64;
          Alcotest.test_case "raw length" `Quick test_to_raw_length;
        ] );
      ( "hmac",
        [
          Alcotest.test_case "rfc4231 case 1" `Quick test_hmac_rfc4231_case1;
          Alcotest.test_case "rfc4231 case 2" `Quick test_hmac_rfc4231_case2;
          Alcotest.test_case "rfc4231 case 3" `Quick test_hmac_rfc4231_case3;
          Alcotest.test_case "rfc4231 case 6 (long key)" `Quick test_hmac_long_key;
          Alcotest.test_case "key separation" `Quick test_hmac_key_separation;
          Alcotest.test_case "string entry at block boundaries" `Quick
            test_string_entry_boundaries;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_hex_shape;
            prop_deterministic;
            prop_no_collisions_observed;
            prop_incremental_agrees;
            prop_words4_law;
            prop_words2_law;
            prop_string_law;
          ] );
    ]
