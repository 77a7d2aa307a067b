(** E26: PoW difficulty controllers under adversarial join schedules
    (ROADMAP "resource-competitive PoW epochs").

    Full epoch chains with controller-gated population minting
    ({!Tinygroups.Epoch.pow_control}), swept over
    controller x {!Adversary.Join_schedule} x beta cells. Each cell
    reports the cumulative good/bad/declined evaluation ledgers, the
    good side's mean join latency, and epoch-chain survival (minimum
    per-epoch search success at least 1/2 — the E21/E22 collapse
    notion). The headline the acceptance test pins: under a steady
    beta=1/8 attack the competitive controller's good spend stays
    within a constant factor of fixed, and under a 10%-duty-cycle
    burst it is at least 3x cheaper, with equal survival.

    Chains run over the 1-retry reliability substrate (E22's
    percolation cure), so establishment failures through hijacked
    groups degrade to suspect instead of compounding as confused —
    without it every beta=1/8 cell collapses by epoch ~4 (the E21
    threshold) and the controller axis is unmeasurable.

    The rendered table is a pure function of (seed, scale); the
    measured wall-clock appears only in {!to_json}
    ([make bench-pow] -> BENCH_pow.json). *)

type controller_kind = [ `Fixed | `Competitive ]

type knobs = {
  n : int;
  epochs : int;
  betas : float list;
  searches : int;  (** per-epoch search samples *)
  floor_shift : int;
  ceiling_factor : int;
  subrounds : int;
  admission_slack : float;
  surge_tolerance : float;
  burst_period : int;
  burst_active : int;
  stockpile : int;  (** burst savings multiplier (Lemma 11 allows 3) *)
  probe_num : int;
  probe_den : int;  (** probing buys while price <= num/den of T/2 *)
}

val default_knobs : Scale.t -> knobs
(** Quick: n=256, 10 epochs, beta=1/8 only. Standard: n=512,
    20 epochs, betas 1/16 and 1/8. Controller tuning matches
    {!Pow.Controller.competitive}'s defaults; the burst schedule is
    1 active epoch in 10 with no stockpile. *)

type row = {
  controller : controller_kind;
  strategy : Adversary.Join_schedule.t;
  beta : float;
  good_evals : int;
  bad_evals : int;
  declined_evals : int;
  vs_fixed : float;
      (** [good_evals] over the fixed closed-form bill
          (windows x good x T/2); 1.0 on fixed rows. *)
  mean_latency : float;
  closing_floor : bool;
      (** the last window closed at the floor price *)
  max_bad_window : int;
  min_success : float;
  survived : bool;
  wall_s : float;  (** measured (JSON only) *)
}

type report = { scale : Scale.t; knobs : knobs; rows : row list }

val run : ?jobs:int -> ?knobs:knobs -> Prng.Rng.t -> Scale.t -> report
(** One substream per cell ({!Common.map_configs}): output identical
    at every [jobs]. *)

val find_row :
  report ->
  controller:controller_kind ->
  strategy_label:string ->
  beta:float ->
  row option
(** Lookup by ({!Adversary.Join_schedule.label}, controller, beta) —
    the acceptance test's accessor. *)

val to_table : report -> Table.t
(** Deterministic fields only (digest-checked via the golden net). *)

val to_json : report -> Report.t
(** Full report including measured wall-clock and the core count of
    the machine writing it. *)

val run_e26 : ?jobs:int -> Prng.Rng.t -> Scale.t -> Table.t
(** Registry entry point: [to_table (run ...)]. *)
