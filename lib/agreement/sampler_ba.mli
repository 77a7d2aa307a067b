(** Sampler-based binary Byzantine agreement for cross-group
    decisions, after King–Saia, {e Breaking the O(n²) Bit Barrier}
    (PAPERS.md).

    Phase-King is all-to-all: [O(t g²)] messages — fine inside a
    [Θ(log log n)] group, quadratic poison anywhere else. King–Saia
    get each processor down to [~O(sqrt n)] bits by replacing
    "hear everyone" with "poll a random sample": each node asks
    [Θ(sqrt n · log n)] peers for their preference bit, adopts the
    sample majority when it is lopsided, and falls back on a global
    coin when it is not. This module reproduces that {e shape} and
    its per-node bit complexity; the global coin is drawn from a
    dedicated stream shared by all correct nodes, standing in for
    King–Saia's spectral coin subroutine (their §3) which is out of
    scope here.

    Per round, a correct node: polls its sample (each poll is a
    1-bit request plus a 1-bit response); computes the majority
    value and its fraction among the responses heard; with fraction
    ≥ 3/4 adopts it and, after two consecutive lopsided rounds,
    decides; with fraction ≥ 5/8 merely adopts; otherwise adopts the
    round's global coin. Validity and agreement hold when the
    Byzantine fraction is well under the sampling slack (the
    [tolerates] bound [8 t < n]) — checked by the law suite over
    seeds, not by this function.

    {b Conditions.} Both legs of a poll go through
    {!Sim.Conditions.transmit} (node [i] is ring point [i + 1]), the
    same send as {!Brb}'s: each attempt is charged and crosses the
    conditions' fault injector, and a lost leg is retried within the
    reliability budget;
    zero-rate plans and zero-budget policies are byte-identical to
    benign conditions. *)

type behaviour =
  | Silent  (** Byzantine nodes never answer polls. *)
  | Random  (** Independent coin per poll answered. *)
  | Collude_against of bool
      (** Always answer the negation, pushing the system away from
          the given value. *)

type outcome = {
  decisions : bool option array;
      (** Per-node decision; [None] for Byzantine nodes. *)
  rounds : int;
  messages : int;
      (** Poll requests plus responses, including retransmissions. *)
  bits : int;  (** 1 bit per message: binary BA's whole currency. *)
  sample_size : int;
      (** Peers polled per node per round,
          [min (n - 1) (ceil (sqrt n · log2 n))]: the [~O(sqrt n)] poll
          budget. *)
  coin_flips : int;  (** Rounds that fell back on the global coin. *)
}

val tolerates : n:int -> t:int -> bool
(** [8 * t < n]: the Byzantine fraction must sit well inside the
    sampling thresholds' slack. *)

val max_rounds : n:int -> int
(** Liveness backstop: [6 + 2 ceil (log2 n)] rounds, after which
    undecided nodes decide their current preference. *)

val run :
  ?conditions:Sim.Conditions.t ->
  ?metrics:Sim.Metrics.t ->
  Prng.Rng.t ->
  inputs:bool array ->
  byzantine:bool array ->
  behaviour:behaviour ->
  outcome
(** [run rng ~inputs ~byzantine ~behaviour] executes the protocol
    over [n = Array.length inputs] nodes. Arrays must have equal
    length and [n >= 2]. Counters land in [metrics] when given
    ({!Sim.Metrics.msg_agreement}, [ba_bits_sent]). *)
