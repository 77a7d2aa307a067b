(** The canonical experiment registry.

    One entry per reproduction artifact (E0-E26 and the Figure 1
    trace). Both drivers — the benchmark harness and the Cmdliner CLI
    — iterate {!all} rather than keeping their own lists, so adding
    an experiment here is the only step needed to surface it
    everywhere (see DESIGN.md §4). *)

type kind =
  | Table of (jobs:int -> Prng.Rng.t -> Scale.t -> Table.t)
      (** A table-producing experiment. [jobs] is the worker-domain
          count for its internal fan-out; output is identical for
          every value of [jobs] under the same seed. *)
  | Faulty of
      (jobs:int -> conditions:Sim.Conditions.t -> Prng.Rng.t -> Scale.t -> Table.t)
      (** A table-producing experiment that additionally accepts
          runtime conditions — a fault plan plus a retry policy (the
          CLI exposes [--fault-*] and [--retry-*] flags for these;
          {!Sim.Conditions.none} is the canonical fault-free
          table). *)
  | Text of (Prng.Rng.t -> string)
      (** A free-form text artifact (Figure 1's search trace). *)

type spec = {
  id : string;  (** Lowercase command name, e.g. ["e4"] or ["f1"]. *)
  doc : string;  (** One-line description (CLI doc string / bench header). *)
  kind : kind;
}

val all : spec list
(** Every experiment, in canonical run order. *)

val find : string -> spec option
(** [find id] looks up an experiment by its lowercase id. *)

val run_table :
  spec ->
  jobs:int ->
  ?conditions:Sim.Conditions.t ->
  Prng.Rng.t ->
  Scale.t ->
  Table.t option
(** Run a [Table] or [Faulty] spec uniformly ([None] for [Text]
    artifacts); the shape both drivers and the golden-output tests
    share. [?conditions] (default {!Sim.Conditions.none}) is ignored
    by plain [Table] experiments. *)
