(** Fixed-width histograms for distribution sanity checks.

    Used to test uniformity of adversarial PoW identifiers
    (Lemma 11: the minted IDs must be u.a.r. on [0,1)) and to render
    ASCII distribution plots in the experiment reports. *)

type t

val create : ?lo:float -> ?hi:float -> bins:int -> unit -> t
(** [create ~bins ()] covers [0,1) by default; values outside
    [lo, hi) are clamped into the end bins. Requires [bins >= 1] and
    [lo < hi]. *)

val add : t -> float -> unit

val count : t -> int -> int
(** Observations in bin [i]. *)

val total : t -> int
val bins : t -> int

val chi_square_uniform : t -> float
(** Chi-square statistic against the uniform distribution over the
    histogram's range; degrees of freedom is [bins - 1]. *)

val chi_square_critical_99 : dof:int -> float
(** Approximate 99th-percentile critical value of the chi-square
    distribution with [dof] degrees of freedom (Wilson–Hilferty
    approximation) — a statistic below this is consistent with
    uniformity at the 1% level. *)

val render : t -> width:int -> string
(** ASCII bar rendering, one line per bin. *)

(** Log-bucketed histograms for latency percentiles.

    The serving tier needs p50/p99/p999 over millions of operation
    latencies without storing every sample. Geometric buckets
    ([per_decade] per factor of 10) bound the {e relative} quantile
    error by [10^(1/per_decade) - 1] regardless of magnitude, so one
    geometry spans sub-millisecond cache hits and multi-second
    timeout spikes. Exact minimum and maximum are tracked on the
    side, so extreme quantiles never extrapolate past observed
    values. *)
module Log : sig
  type t

  val create : ?lo:float -> ?hi:float -> ?per_decade:int -> unit -> t
  (** [create ()] covers [0.1 .. 1e7] (milliseconds, say) at 25
      buckets per decade (≈ 9.6% relative resolution). Values below
      [lo] land in an underflow sink whose range is closed by the
      exact minimum; values at or above [hi] in an overflow sink
      closed by the exact maximum. Negative and NaN samples clamp
      to 0. Requires [0 < lo < hi] and [per_decade >= 1]. *)

  val add : t -> float -> unit

  val total : t -> int
  val quantile : t -> float -> float
  (** [quantile t q] estimates the same order statistic
      {!Descriptive.quantile} interpolates around (0-based rank
      [q * (total - 1)]), by linear interpolation inside the bucket
      holding that rank. Within the geometry's relative resolution
      [10^(1/per_decade) - 1] of the true sample quantile (plus one bucket of interpolation slack at bucket
      boundaries). Raises [Invalid_argument] when empty or
      [q] is outside [0, 1]. *)

  val merge : t -> t -> t
  (** Pure combination of two histograms of identical geometry —
      associative and commutative up to float min/max, which is what
      lets per-cohort histograms fold in any grouping. Raises
      [Invalid_argument] on differing geometry. *)

  val buckets : t -> int
  (** Total bucket count including the two sinks. *)
end
