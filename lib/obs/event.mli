(** Typed per-slot switch events and their JSONL codec.

    One event is one line of a trace file: a flat JSON object with fixed
    field order ([ev], [slot], [src], then the kind's payload), so traces
    are diffable and bit-stable.  Everything in an event is derived from
    simulation state (slot indices, ports, occupancies, latencies measured
    in slots) — never from wall-clock time — so a trace is deterministic in
    the run's seed and parameters, independent of scheduling.

    The schema carries enough state to make traces {e replayable}: from a
    complete stream, {!Smbm_forensics.Replay} reconstructs per-port
    occupancy, buffer fill and every aggregate counter, and certifies them
    against the recorded [slot_end] occupancies. *)

type kind =
  | Arrival of { dest : int }  (** a packet was offered to the switch *)
  | Accept of { dest : int }  (** the arrival was admitted *)
  | Push_out of { victim : int; dest : int; lost : int }
      (** queue [victim] lost a packet to make room for an arrival to
          [dest]; always followed by the corresponding [Accept].  [lost] is
          the objective lost with the evicted packet: 1 in the processing
          model (one transmission), the packet's value in the value model.
          In single-priority-queue reference traces ({!Smbm_sim.Opt_ref})
          [victim] is the evicted {e bag key} (residual work, resp. value),
          not a port index. *)
  | Drop of { dest : int; value : int }
      (** the arrival was rejected; [value] is the objective lost with it
          (1 in the processing model, the arrival's value otherwise) *)
  | Transmit of { dest : int; value : int; latency : int }
      (** a packet completed; [latency] in slots since its arrival *)
  | Transmit_bulk of { dest : int; count : int; value : int }
      (** [count] packets of total objective [value] completed in one
          transmission phase without per-packet latency attribution —
          emitted by reference solvers ({!Smbm_sim.Opt_ref},
          {!Smbm_sim.Exact_opt}).  [dest] is the serving port, or [-1] when
          the reference holds one aggregate queue. *)
  | Flush of { count : int }
      (** the simulator's periodic flushout discarded all [count] buffered
          packets *)
  | Slot_end of { occupancy : int }
      (** end of the slot's transmission phase, buffer population *)
  | Reconfig of { what : string; target : string }
      (** a live reconfiguration was applied at a slot boundary by the
          {!Smbm_serve} daemon: [what] names the knob (["policy"],
          ["buffer"]) and [target] the new setting (a policy name, the new B
          as a decimal string).  Carries no switch state: buffered packets
          survive a reconfiguration by contract, so counters are unaffected
          and replay treats it as an annotation. *)
  | Health of { rule : string; tripped : bool; reason : string }
      (** a {!Smbm_obs.Health} watchdog transition observed by the
          {!Smbm_serve} daemon: [rule] names the watchdog, [tripped] its new
          state, [reason] the failing condition (or ["recovered"]).  Like
          [Reconfig], an annotation: carries no switch state and is
          counter-neutral in replay. *)
  | Truncated of { evicted : int }
      (** trace metadata, not a switch event: the recording ring evicted
          [evicted] older events before this line.  Emitted as the first
          line of a scope's dump (or, in a trace drained while the ring
          runs, where the loss happened); [slot] is the oldest surviving
          slot, so slots before it are unverifiable; [src] is the ring's
          scope. *)

type t = { src : string; slot : int; kind : kind }
(** [src] identifies the emitting instance, optionally qualified by the
    event ring's scope (e.g. ["x=8/LWD"]). *)

val make : src:string -> slot:int -> kind -> t
val kind_name : kind -> string

(** {2 Binary layout}

    The kind tags and payload field order fixed by the binary trace format
    (doc/trace-format.md), defined once here and shared by the
    {!Flight} ring's columns and {!Smbm_forensics.Trace_file}'s codec.
    A kind's payload is its fields in JSONL order, each an integer, a
    string ([name]) or a boolean ([flag]). *)

val tag_arrival : int
val tag_accept : int
val tag_push_out : int
val tag_drop : int
val tag_transmit : int
val tag_transmit_bulk : int
val tag_flush : int
val tag_slot_end : int
val tag_reconfig : int
val tag_health : int

val tag_truncated : int
(** Never recorded by an engine: synthesized by {!Flight.dump}, reserved
    here and in the binary format. *)

val tag : kind -> int

type reader = {
  int : unit -> int;
  name : unit -> string;
  flag : unit -> bool;
}
(** Sources of the next payload field, called in payload order. *)

val of_tag : int -> reader -> kind option
(** The kind with tag [t], its payload read through the reader; [None]
    (nothing read) for a tag outside the table. *)

type writer = {
  put_int : int -> unit;
  put_name : string -> unit;
  put_flag : bool -> unit;
}

val write_payload : writer -> kind -> unit
(** Hand the kind's payload fields to the writer, in payload order. *)

val to_json : t -> string
(** One line of JSONL, no trailing newline. *)

val of_json : string -> (t, string) result
(** Strict inverse of {!to_json}: unknown [ev] values, missing or
    ill-typed fields, extra fields, and malformed JSON are all errors. *)

val pp : Format.formatter -> t -> unit
