(** The one JSON emitter and parser behind every document the repo writes:
    metric registries, trace exports, analyzer and profiler reports, and
    the benchmark baseline.

    Two rules hold everywhere:
    - {b strings} escape ['"'], ['\\'] and ['\n'] with a backslash and every
      other control byte below [0x20] as [\u00XX]; other bytes pass through
      unchanged, so strings are byte strings;
    - {b floats} print as the shortest of [%.15g]/[%.16g]/[%.17g] that reads
      back equal, always with a fraction or an exponent (so [Float 3.0]
      prints [3.0], never [3]); NaN and ±inf have no JSON form and print
      [null].

    Whitespace is never part of a schema: {!to_string} emits none, and
    {!pretty} only adds line breaks and indentation. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list  (** members in emission order *)

val escape : string -> string
(** The body of a JSON string literal for a byte string (no quotes). *)

val to_buffer : Buffer.t -> t -> unit
(** Append the compact rendering (no whitespace at all). *)

val to_string : t -> string
(** Compact rendering, no whitespace and no trailing newline. *)

val pretty : t -> string
(** Indented rendering with a trailing newline. An array or object stays
    on one line (compact) when all its members are scalars or its compact
    form fits in 100 columns; otherwise each member goes on its own line,
    two spaces deeper. *)

val of_string : string -> (t, string) result
(** Total parser: never raises. Accepts exactly one value surrounded by
    optional whitespace. A number with no fraction or exponent that fits
    an [int] parses as {!Int}, any other number as {!Float}. [\uXXXX]
    escapes above [00FF] are rejected: strings are byte strings, and only
    [\u0000] to [\u00ff] name a byte. Nesting deeper than 512 is rejected. *)

val member : string -> t -> t option
(** [member k (Obj fields)] is the first binding of [k]; [None] for a
    missing key or a non-object. *)
