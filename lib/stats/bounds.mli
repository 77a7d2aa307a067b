(** The exact binomial tail behind the paper's concentration bounds
    (§I-C, Theorems 1 and 2).

    Experiments compare empirical tail frequencies against it: e.g.
    E1 checks the measured fraction of bad groups against the exact
    probability that a group's bad members reach a majority. *)

val binomial_tail_ge : n:int -> p:float -> k:int -> float
(** Exact [Pr(Binomial(n, p) >= k)] by direct summation — exact where
    the Chernoff approximations are loose, at the tiny group sizes
    the paper actually uses. *)
