(** Confidence intervals for proportions and means.

    Robustness experiments estimate small failure probabilities (a
    handful of red groups among thousands); the Wilson interval stays
    honest near 0 where the normal approximation collapses. *)

type interval = { lo : float; hi : float }

val wilson95 : successes:int -> trials:int -> interval
(** 95% Wilson score interval for a binomial proportion. Requires
    [trials > 0] and [0 <= successes <= trials]. *)

val pp : Format.formatter -> interval -> unit
