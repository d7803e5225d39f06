(** A dependency-free JSON value type, encoder and parser.

    This is the machine-readable substrate of the telemetry layer: the
    bench harness and the CLI serialise every experiment through it, so
    that performance records ([BENCH_*.json]) can be diffed across PRs
    without scraping ASCII tables. The encoder writes RFC 8259 JSON;
    non-finite floats (which JSON cannot represent) are encoded as
    [null], matching what consumers such as [jq] and Python's [json]
    module accept. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?minify:bool -> t -> string
(** Render a value. [minify] (default [true]) omits all whitespace;
    otherwise the output is pretty-printed with two-space indents. *)

val to_channel : ?minify:bool -> out_channel -> t -> unit
(** [to_string] straight to a channel, followed by a newline. *)

val default_max_depth : int
(** Default container-nesting bound of {!of_string} (256). *)

val of_string : ?max_depth:int -> string -> (t, string) result
(** Parse one JSON value. Numbers without [.], [e] or [E] parse as
    [Int]; everything else as [Float]. Trailing whitespace is allowed,
    trailing garbage is an error. The error string carries a byte
    offset.

    [max_depth] (default {!default_max_depth}) bounds container
    nesting: input opening more than [max_depth] arrays/objects is
    rejected with a parse error instead of recursing — crafted NDJSON
    like a megabyte of ['\['] cannot overflow the stack. Telemetry this
    library writes stays far below the bound; raise it only for trusted
    input.
    @raise Invalid_argument if [max_depth < 1]. *)

(** {2 Accessors} — for schema checks and bench-file diffing. *)

val member : string -> t -> t option
(** Field lookup in an [Obj]; [None] on missing field or non-object. *)

val to_list : t -> t list option
val to_float : t -> float option
(** [Int] values coerce; [Null] does not. *)

val to_int : t -> int option
val to_string_opt : t -> string option
