(** Minimal JSON support for the observability layer: enough to emit and
    parse the flat (non-nested) objects used by the JSONL trace and metrics
    schemas, with no external dependencies.

    Emission is deterministic: field order is the caller's, integers print
    as integers, strings with the standard escapes, and floats so that
    {!parse_flat} reads back exactly the same float (17 significant
    digits, always marked as a float — [2.] prints as ["2.0"], [-0.] as
    ["-0.0"] — with infinities as overflowing exponents [±1e999] and nan
    as the literal ["nan"]). *)

type value = Int of int | Float of float | Str of string | Bool of bool

val escape : string -> string
(** JSON string-escape the contents (without surrounding quotes). *)

val value_to_string : value -> string

val obj : (string * value) list -> string
(** One flat JSON object on a single line, fields in the given order. *)

val parse_flat : string -> ((string * value) list, string) result
(** Parse a single flat JSON object.  Rejects nested objects and arrays,
    duplicate keys, and trailing garbage; errors carry a byte position. *)

val read_lines : string -> (string list, string) result
(** The non-blank lines of a JSONL file, in order; [Error] carries the
    [Sys_error] message (which names the path) when it cannot be read. *)
