(** JSON reports: the one printer behind every committed [BENCH_*]
    artefact and every [--out] file.

    Callers build a {!t} and hand it to {!write} (or {!to_string});
    no other module formats JSON syntax. The layout is fixed so that
    a regenerated artefact diffs cleanly against the committed one:
    two-space indentation, one field or element per line, [[]] and
    [{}] for empty containers, and a trailing newline. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list  (** Fields print in list order. *)

val fixed : int -> float -> t
(** [fixed d x] is [Float x] rounded to [d] decimal places, for
    measured quantities whose further digits are noise. *)

val to_string : t -> string
(** Strings are escaped: the quote, the backslash and newline by a
    backslash, the other control characters as [\u00XX]. A float
    prints as the shortest decimal that reads back to the same value,
    with a [.0] kept on integral values; [nan] and the infinities
    print as [null]. *)

val write : string -> t -> unit
(** [write path v] replaces the file at [path] with [to_string v]. *)

val check_writable : string -> (unit, string) result
(** [check_writable path] is [Ok ()] when {!write} can create or
    replace the file at [path] (its directory exists and accepts the
    file), and [Error msg] otherwise. Command lines call it while
    parsing, so a bad [--out] fails before the run. Leaves the file
    system as it found it. *)
