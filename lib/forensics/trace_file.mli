(** Event-trace files: the one writer and the one reader of both
    encodings, and the structural audit behind [trace-validate].

    A trace file (written by [--trace]) interleaves the event streams of
    several instances, each identified by its [src] field (optionally
    scope-qualified, e.g. ["x=8/LWD"]).  Loading splits the file back into
    one stream per source, keeps original line numbers for error reporting,
    and resolves [Truncated] metadata markers: each marker's [src] is a
    ring scope, and it covers every source inside that scope (the scope
    itself or [scope/...]; the empty scope covers all), declaring
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
  sources : source list;  (** in order of first appearance *)
  truncations : (string * int * int) list;
      (** (scope, evicted, oldest surviving slot) markers found *)
}

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

val write :
  format:[ `Jsonl | `Binary ] ->
  string ->
  Smbm_obs.Event.t list ->
  (unit, string) result
(** Write an event stream to a path in either encoding.  JSONL is streamed
    one line per event through a {!Smbm_obs.Sink}; binary is
    {!to_binary}.  [Error] is {!Smbm_obs.Sink.error_to_string} of the
    failed open, write or close, so it names the path. *)

val read_events : string -> ((int * Smbm_obs.Event.t) list, string) result
(** Every event of a trace in either encoding, in file order, each with
    its JSONL line number (or 1-based event index in a binary trace);
    stops at the first malformed event. *)

val find : t -> string -> (source, string) result
(** Resolve a source by exact [src], or — when unambiguous — by suffix
    (["LWD"] matches ["x=8/LWD"]).  The error lists the available sources. *)

val source_names : t -> string list

(** {2 Structural audit} *)

type audit = {
  events : int;  (** every event, [Truncated] markers included *)
  kinds : (string * int) list;  (** events per kind name, sorted by name *)
  scopes : (string * int * int) list;
      (** per truncation scope, in order of first appearance: the evicted
          events its markers declare (summed) and the oldest surviving slot
          (the latest any marker names) *)
  deficits : (string * int) list;
      (** sources, sorted by name, whose accepts plus drops outnumber their
          arrivals: resolutions of arrivals an evicted prefix lost *)
}

val audit : ?allow_truncation:bool -> t -> (audit, string) result
(** Check a loaded trace: slots never go backwards within a source
    (["file:line: ..."]); no source resolves fewer arrivals than it saw
    ("impossible even under truncation"); a source with a deficit is
    covered by a truncation marker ({!source.evicted} is its budget) unless
    [allow_truncation] (default [false]) waives that for legacy traces;
    and no scope's sources miss more resolutions than the scope declares
    evicted.  The first failed check, in that order, is the [Error]. *)
