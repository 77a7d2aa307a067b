(** SHA-256 (FIPS 180-4), implemented from scratch.

    The paper's random-oracle assumption (§I-C) names SHA-2 as the
    practical instantiation of the hash functions [h], [h1], [h2], [f]
    and [g]; this module is that instantiation. Pure OCaml, no
    dependencies; validated against the NIST test vectors in the test
    suite. *)

type digest = private string
(** A 32-byte binary digest. *)

val digest_string : string -> digest
(** [digest_string s] is the SHA-256 digest of [s]. *)

val digest_bytes : bytes -> digest
(** [digest_bytes b] is the SHA-256 digest of the contents of [b]. *)

val to_hex : digest -> string
(** Lowercase hexadecimal rendering (64 characters). *)

val to_raw : digest -> string
(** The 32 raw bytes of the digest. *)

val prefix_int64 : digest -> int64
(** [prefix_int64 d] is the first 8 bytes of [d] read big-endian; used
    to map digests into numeric spaces. *)

type ctx
(** Incremental hashing context. *)

val init : unit -> ctx
(** Fresh context. *)

val feed_string : ctx -> string -> unit
(** Absorb more input. *)

val finalize : ctx -> digest
(** Pad, finish, and return the digest. The context must not be used
    afterwards. *)

val hmac : key:string -> string -> digest
(** [hmac ~key msg] is HMAC-SHA256 (RFC 2104); used to derive the
    independent labelled oracle families. *)

type hmac_key
(** A key with its HMAC pad blocks pre-absorbed (the chaining states
    after [key ^ ipad] and [key ^ opad]). Immutable — safe to share
    across domains. *)

val hmac_key : string -> hmac_key

val hmac_with : hmac_key -> string -> digest
(** [hmac_with (hmac_key k) msg = hmac ~key:k msg], skipping the two
    pad-block compressions on every call — the oracle families MAC
    millions of short messages under a handful of fixed keys. *)

(** {2 The allocation-free oracle entry}

    The oracle families MAC one short message per draw, millions of
    times per graph build. These entries compute
    [prefix_int64 (hmac_with k m)] truncated to its low 62 bits, as a
    native [int], without allocating: the message is written as
    big-endian 32-bit words (padding and length included) straight
    into a message schedule, and the inner and outer compressions run
    from [k]'s pre-absorbed pad states. The schedule and the chaining
    state are one scratch per domain ([Domain.DLS]), so domains never
    share it; a call is not re-entrant within one domain, and none of
    them calls back into user code. *)

val hmac62_words2 : hmac_key -> int -> int -> int
(** [hmac62_words2 k w0 w1] for the 8-byte message holding the 32-bit
    words [w0], [w1] (each taken mod [2^32]) in big-endian order. *)

val hmac62_words4 : hmac_key -> int -> int -> int -> int -> int
(** [hmac62_words4 k w0 w1 w2 w3] for the 16-byte message of four
    big-endian 32-bit words. *)

val hmac62_string : hmac_key -> string -> int
(** [hmac62_string k m] for any [m]. Messages of at most 55 bytes fit
    one block and take the allocation-free path; longer ones go
    through {!hmac_with}. *)
