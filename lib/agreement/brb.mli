(** Byzantine Reliable Broadcast (Bracha '87 echo/ready style), run
    as a synchronous simulation under the repo's fault/retry
    machinery.

    Phase-King ({!Phase_king}) is the {e intra-group} workhorse:
    all-to-all traffic is affordable when the group has
    [Θ(log log n)] members. Anything larger needs a primitive whose
    guarantees survive an unreliable transport without a BA instance
    per value — which is exactly what reliable broadcast provides.
    The four properties (the brb-thesis contract, and this module's
    testing contract — see [test/test_brb.ml]):

    (i) {b Validity}: if a correct sender broadcasts [m], every
    correct process eventually delivers [m];
    (ii) {b No-duplication}: no correct process delivers more than
    once;
    (iii) {b Integrity}: a delivered payload was actually sent by
    the sender (correct sender: the broadcast payload; Byzantine
    sender: one of the payloads it equivocated);
    (iv) {b Agreement}: if any correct process delivers [m], every
    correct process delivers [m].

    The protocol: the sender broadcasts [SEND m]; on first [SEND],
    a process broadcasts [ECHO m]; on an echo quorum
    ([> (n + f) / 2]) or a ready amplification ([f + 1] [READY]s),
    it broadcasts [READY m]; on [2 f + 1] [READY]s it delivers [m].
    Tolerates [f < n/3] Byzantine processes.

    {b Conditions.} Every point-to-point message goes through
    {!Sim.Conditions.transmit} (process [i] is ring point [i + 1]):
    the conditions' fault injector rules on each attempt, and a lost
    send is retried within the tracker's budget, each attempt
    charged and drawing a fresh verdict.
    The zero anchors hold: a zero-rate plan and a zero-budget policy
    are byte-identical to {!Sim.Conditions.none}. *)

type behaviour =
  | Silent  (** Byzantine processes send nothing at all. *)
  | Random
      (** Byzantine processes echo/ready a coin-flipped payload per
          recipient per round; a Byzantine sender SENDs coin-flipped
          payloads. *)
  | Equivocate
      (** A Byzantine sender SENDs the payload to the first half of
          the processes and [payload + 1] to the rest; Byzantine
          non-senders echo and ready [payload + 1], backing the
          forged side of the split. *)
  | Forge
      (** Byzantine processes ignore the protocol and echo/ready
          [payload + 1] to everyone, trying to assemble a forged
          quorum. A Byzantine sender stays silent. *)

type outcome = {
  delivered : int option array;
      (** Per-process delivered payload; [None] for processes that
          delivered nothing (and for Byzantine processes, whose
          output is meaningless). *)
  deliveries : int array;
      (** Deliver {e events} per process — the no-duplication law
          checks every correct entry is at most 1. *)
  messages : int;
      (** Point-to-point send attempts, including retransmissions
          charged by the reliability layer. *)
  bits : int;  (** Protocol bits: {!message_bits} per message. *)
  dropped : int;  (** Sends the fault injector suppressed for good. *)
  rounds : int;  (** Synchronous rounds until quiescence. *)
}

val tolerates : n:int -> f:int -> bool
(** [3 * f < n], the resilience of the echo/ready quorums. *)

val message_bits : int
(** Bits per BRB message: a 2-bit tag plus the 62-bit payload word. *)

val benign_messages : n:int -> int
(** Closed-form message count of a fault-free all-correct execution:
    [(n - 1)] SENDs plus [n (n - 1)] ECHOs plus [n (n - 1)] READYs
    — [(n - 1) (2 n + 1)]. {!run} under benign conditions with no
    Byzantine processes produces exactly this count (unit-tested). *)

val relay_messages : group_size:int -> int
(** Message cost of handing a value to a foreign group over BRB: the
    external sender SENDs to all [group_size] members, who then run
    the echo/ready rounds among themselves —
    [g + 2 g (g - 1)]. The BRB-routed transport of
    {!Randstring.Propagate} charges this per forward in place of the
    [g * g] all-to-all exchange. *)

val run :
  ?conditions:Sim.Conditions.t ->
  ?metrics:Sim.Metrics.t ->
  Prng.Rng.t ->
  n:int ->
  sender:int ->
  byzantine:bool array ->
  behaviour:behaviour ->
  payload:int ->
  outcome
(** [run rng ~n ~sender ~byzantine ~behaviour ~payload] executes one
    broadcast among processes [0 .. n-1]. [byzantine] must have
    length [n]; [sender] names the broadcasting process (Byzantine
    senders misbehave per [behaviour]). Counters land in [metrics]
    when given ({!Sim.Metrics.msg_agreement}, [ba_bits_sent],
    [brb_delivered]).

    The four properties are guaranteed when [3 f < n] and the
    conditions' drops are masked by the retry budget; they are
    checked by the law suite, not by this function. *)
