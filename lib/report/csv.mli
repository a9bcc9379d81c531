(** Minimal RFC-4180-style CSV writing (quoting of commas, quotes and
    newlines), for exporting sweep results to external plotting tools. *)

val escape : string -> string
(** Quote a field if it contains a comma, a double quote or a newline. *)

val row : string list -> string
(** One CSV line (no trailing newline). *)

val of_table : headers:string list -> rows:string list list -> string
(** Full document with a header line. *)
