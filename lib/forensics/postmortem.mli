(** Black-box postmortem dumps: what the serve daemon writes when a health
    watchdog trips, a sink latches an error, or the engine throws.

    A postmortem is a pair of files sharing a base path:

    - [<base>.trace.bin] — the flight ring's last-N events, in the
      standard binary trace encoding ({!Trace_file}), so every forensics
      tool (replay, diff, attribution, validation, conversion) consumes
      it directly;
    - [<base>.meta.jsonl] — a flat-JSONL snapshot of the daemon's state at
      dump time: the trigger, the live config (policy, buffer size), the
      registry counters, per-port occupancy and health rule states.

    {!certify} ties the two together: it replays the dumped window with
    {!Replay} and — when the ring had evicted nothing, so the window is
    the whole run — requires the reconstructed counters and per-port
    occupancy to equal the snapshot exactly. *)

type meta = {
  reason : string;  (** ["health"], ["sink"] or ["exception"] *)
  detail : string;  (** rule and reason, sink error, or exception text *)
  slot : int;  (** slots fully processed when the dump fired *)
  model : string;  (** ["proc"] or ["value"] *)
  src : string;  (** the engine's event source name *)
  policy : string;  (** live policy at dump time *)
  buffer : int;  (** live B at dump time *)
  evicted : int;  (** events the flight ring had overwritten *)
  events : int;  (** events in the dumped trace (markers included) *)
  counters : (string * int) list;  (** registry counters, engine + serve *)
  ports : int array;  (** per-port occupancy at dump time *)
  health : (string * bool) list;  (** per-rule tripped state *)
}

val trace_path : string -> string
(** [base ^ ".trace.bin"] *)

val meta_path : string -> string
(** [base ^ ".meta.jsonl"] *)

val base_of : string -> string
(** The base for a base, trace or meta path (inverse of the two above). *)

val write : base:string -> meta -> Smbm_obs.Event.t list -> (unit, string) result
(** Write both halves: the events through {!Trace_file.write} (binary),
    then the meta lines through a {!Smbm_obs.Sink}.  [Error] names the
    path that failed. *)

val load : string -> (meta * Trace_file.t, string) result
(** Load both halves; the argument may be the base or either file path. *)

type verdict =
  | Certified of { slots : int; events : int; checked : int }
      (** complete window: replayed counters match the snapshot exactly *)
  | Window of { evicted : int; oldest_slot : int }
      (** truncated window: replayed, but counters cover only the tail *)

val certify : meta -> Trace_file.t -> (verdict, string) result
(** Replay the dumped engine stream and check it against the snapshot.
    Errors are replay divergence or a counter/occupancy mismatch. *)

val pp_verdict : Format.formatter -> verdict -> unit

val pp_meta : Format.formatter -> meta -> unit
(** Multi-line summary ([@,] separated; wrap in a vbox). *)
