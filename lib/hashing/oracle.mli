(** Labelled random-oracle families over the ID space.

    The construction (paper §I-C, §III-A, §IV-A) uses several
    independent hash functions with range [0,1): [h1] and [h2] choose
    group members, [f] and [g] build proof-of-work identifiers, and [h]
    scores random strings. Under the random-oracle assumption each is an
    independent uniform function; we realise them as HMAC-SHA256 keyed
    by a per-function label and a per-deployment system key (the "fixed
    parameter included as part of the application").

    Outputs are exposed as 62-bit unsigned integers, the resolution of
    the fixed-point ID space in {!module:Idspace}.

    Every query MACs the canonical big-endian encoding of its input
    (8 bytes per [int64], a native [int] sign-extended to 64 bits)
    through {!Sha256}'s allocation-free entry: the message words go
    straight into a per-domain scratch schedule, and the two
    compressions run from the key's pre-absorbed pad states, so a
    query allocates at most its [int64] result ({!draw_indexed} not
    even that). Strings over 55 bytes take the general HMAC path.
    Queries are safe to run from several domains at once. *)

type t
(** One named oracle (an independent uniform function). *)

val make : system_key:string -> label:string -> t
(** [make ~system_key ~label] derives the oracle named [label] for the
    deployment identified by [system_key]. Same inputs, same function —
    all participants can evaluate it. *)

val label : t -> string
(** The oracle's label. *)

val query_string : t -> string -> int64
(** [query_string t s] evaluates the oracle on [s]; result is uniform
    on [0, 2^62). *)

val query_u62 : t -> int64 -> int64
(** Evaluate on a numeric input (e.g. a point of the ID space or a
    puzzle solution), encoded canonically. Uniform on [0, 2^62). *)

val query_indexed : t -> int64 -> int -> int64
(** [query_indexed t w i] is the oracle applied to the pair [(w, i)] —
    the [h1(w, i)] / [h2(w, i)] evaluations used to draw the [i]-th
    member of the group led by [w] (§III-A). Uniform on [0, 2^62). *)

val draw_indexed : t -> int -> int -> int
(** [draw_indexed t w i = Int64.to_int (query_indexed t (Int64.of_int w) i)]:
    the same draw with the leader [w] (a point of the ID space, so
    non-negative) and the result as native [int]s. It allocates
    nothing: every oracle entry writes its message straight into a
    per-domain SHA-256 scratch ({!Sha256.hmac62_words4}), and this one
    also avoids the [int64] box of the result. The group-formation
    paths draw their members through it. *)

val u62_mask : int64
(** [2^62 - 1]: outputs satisfy [0 <= v <= u62_mask]. *)
