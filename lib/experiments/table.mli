(** Fixed-width table rendering for experiment reports.

    Every experiment prints its results as an aligned text table with
    a caption tying it back to the paper (EXPERIMENTS.md records the
    same tables). *)

type t

val create : title:string -> columns:string list -> t

val add_row : t -> string list -> unit
(** Rows must match the column count. *)

val add_note : t -> string -> unit
(** Free-form footnote printed under the table. *)

val print : t -> unit
(** Render to stdout. *)

val render : t -> string

val save_csv : t -> dir:string -> slug:string -> string
(** Write the table as comma-separated values to [dir/slug.csv]
    (creating [dir] if needed) and return the path: a header row,
    the data rows (cells with commas or quotes are quoted), and the
    notes as trailing [# ...] comment lines. *)

val title : t -> string

(** Formatting helpers. *)

val fint : int -> string
val ffloat : ?digits:int -> float -> string
val fpct : float -> string
(** A probability as a percentage with two decimals. *)

val fsci : float -> string
(** Scientific notation with two digits. *)
