(** Descriptive statistics over float samples.

    Every experiment table reports means, deviations and quantiles of
    measured quantities (failure fractions, message counts, state
    sizes); this module is their single implementation. *)

type summary = {
  n : int;
  mean : float;
  std : float;  (** Sample standard deviation (n-1 denominator). *)
  min : float;
  max : float;
  median : float;
  p95 : float;
  p99 : float;
}

val summarize : float array -> summary
(** Summary of a non-empty sample. The input array is not modified. *)

val mean : float array -> float

val quantile : float array -> float -> float
(** [quantile xs q] for [q] in [0,1], by linear interpolation on the
    sorted sample. The input array is not modified. *)
