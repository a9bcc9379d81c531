(** Loading an event trace from disk into per-source streams.

    A trace file (written by [--trace]) interleaves the event streams of
    several instances, each identified by its [src] field (optionally
    scope-qualified, e.g. ["x=8/LWD"]).  Loading splits the file back into
    one stream per source, keeps original line numbers for error reporting,
    and resolves [Truncated] metadata markers: each marker's [src] is a
    ring scope, and it covers every source inside that scope, declaring
    how many of their events the recording ring evicted (a scope may carry
    several markers; their counts add up). *)

type line = { lineno : int; event : Smbm_obs.Event.t }

type source = {
  src : string;
  lines : line list;  (** oldest first; [Truncated] markers excluded *)
  evicted : int;
      (** events evicted from this source's scope before the stream starts
          (0 = the stream is complete) *)
  oldest_slot : int;
      (** when [evicted > 0], the oldest slot surviving in the scope: slots
          before it are unverifiable *)
}

type t = {
  path : string;
  line_count : int;
  sources : source list;  (** in order of first appearance *)
  truncations : (string * int * int) list;
      (** (scope, evicted, oldest surviving slot) markers found *)
}

val scope_covers : scope:string -> string -> bool
(** [scope_covers ~scope src]: the empty scope covers everything; otherwise
    [src] is covered when it equals [scope] or starts with [scope ^ "/"]. *)

val load : string -> (t, string) result
(** Load a trace in either encoding, dispatching on the binary {!magic}.
    JSONL is strictly parsed line by line ({!Smbm_obs.Event.of_json}) with
    errors positioned as ["file:line: message"]; binary decode errors are
    positioned by byte offset. *)

(** {2 Encodings}

    A trace is one logical stream of events with two on-disk encodings:
    the JSONL lines [--trace] writes, and a compact binary form (magic
    header, interned string table, one tag byte plus varint fields per
    event — see [doc/trace-format.md]).  Both carry exactly an
    {!Smbm_obs.Event.t} list, so conversion either way is lossless. *)

val magic : string
(** First bytes of a binary trace; the last byte is the format version. *)

val is_binary : string -> bool
(** Whether the file at this path starts with {!magic} (false when it
    cannot be read). *)

val to_binary : Smbm_obs.Event.t list -> string
(** The binary encoding of an event stream, magic included. *)

val write_binary : string -> Smbm_obs.Event.t list -> (unit, string) result

val iter_events :
  string -> f:(lineno:int -> Smbm_obs.Event.t -> unit) -> (int, string) result
(** Stream a trace in either encoding in file order, returning the line
    count ([lineno] is the JSONL line number, or the 1-based event index
    in a binary trace) and stopping at the first malformed event. *)

val read_events : string -> ((int * Smbm_obs.Event.t) list, string) result
(** {!iter_events}, collected. *)

val find : t -> string -> (source, string) result
(** Resolve a source by exact [src], or — when unambiguous — by suffix
    (["LWD"] matches ["x=8/LWD"]).  The error lists the available sources. *)

val source_names : t -> string list
