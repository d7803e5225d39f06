(** ASCII tables — the output format of the bench harness. *)

type align = Left | Right

type t

val create : columns:(string * align) list -> t
(** [create ~columns] starts a table with the given headers.
    @raise Invalid_argument on an empty column list. *)

val add_row : t -> string list -> unit
(** Append a row.
    @raise Invalid_argument if the width differs from the header. *)

val render : t -> string
(** The table as a string with aligned columns and a separator line. *)

val print : t -> unit
(** [render] to stdout followed by a newline. *)
