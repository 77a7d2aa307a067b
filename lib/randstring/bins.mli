(** The bins-and-counters filter of the string-propagation protocol
    (Appendix VIII).

    Each ID keeps bins [B_j = [2^-j, 2^-(j-1))] for
    [j = 1 .. b ln(nT)] over the hash outputs of circulating strings,
    with a counter per bin capped at [c0 ln n]. A received string is
    {e accepted} (stored and forwarded) only when its output is a new
    record within its bin and the bin's counter has room — once
    [c0 ln n] record-breakers landed in a bin, w.h.p. strictly
    smaller outputs exist in deeper bins, so the bin retires. This
    caps any ID's total forwards at [O(ln n * ln (nT))]. *)

type item = {
  output : float;  (** [h(s XOR r)], uniform on (0,1). *)
  tag : int;  (** Unique identity of the underlying string. *)
  from_adversary : bool;
}

type t

val create : n:int -> t_steps:int -> b:float -> c0:float -> t
(** [b ln (n * t_steps)] bins with per-bin cap [c0 ln n] (both at
    least 1). *)

val bin_count : t -> int
val cap : t -> int

val bin_of_output : t -> float -> int
(** 0-based bin index; outputs below the deepest bin clamp into it,
    outputs in [1/2, 1) land in bin 0. Requires [0 < output < 1]. *)

val offer : t -> item -> bool
(** Accept-and-count, per the protocol rule. Returns whether the item
    must be stored and forwarded. Re-offering an already-seen output
    never re-forwards (acceptance requires a {e strictly} smaller
    record). *)

val min_item : t -> item option
(** The accepted item with the smallest output. *)

val solution_set : t -> size:int -> item list
(** The protocol's [R]: the accepted strings with the smallest
    outputs, deepest bins first, at most [size] of them; sorted by
    increasing output. *)
