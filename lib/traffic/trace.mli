(** Recorded arrival traces: capture a workload, replay it later, or persist
    it to disk in a one-line-per-slot text format ("dest:value dest:value
    ...", blank line for an idle slot). *)

open Smbm_core

(** A whole run's arrivals materialized as flat struct-of-arrays storage:
    [dest]/[value] columns plus a per-slot offset index.  Built once,
    replayed many times — the sweep trace cache shares one compact trace
    across every instance of a point and across axis values whose traffic
    parameters coincide.  Replay is allocation-free (column reads straight
    into the caller's {!Smbm_core.Arrival_batch.t}).

    The columns live off the OCaml heap ({!Smbm_prelude.Int_col}): compact
    traces are immutable after construction and safe to read concurrently
    from several domains without copying. *)
module Compact : sig
  type t

  val of_workload : Workload.t -> slots:int -> t
  (** Consume [slots] slots.  The arrival sequence recorded is exactly what
      {!Workload.next_into} would have yielded. *)

  val of_slots : Arrival.t list array -> t
  (** Literal constructor: slot [i]'s arrivals are [slots.(i)], in order. *)

  val slots : t -> int
  val arrivals : t -> int

  val iter_slot : t -> int -> f:(dest:int -> value:int -> unit) -> unit
  (** Arrivals of slot [i] in arrival order.
      @raise Invalid_argument out of bounds. *)

  val within : t -> ports:int -> max_value:int -> bool
  (** Whether every arrival has [dest < ports] and [value <= max_value]:
      one pass over the columns, with no call per arrival. *)

  val replay : t -> Workload.t
  (** A workload that replays the trace; slots beyond the end are empty.
      Replaying consumes no RNG and allocates nothing per slot, and the
      replayed stream is bit-identical to the recorded one. *)

  val save : t -> line:(string -> unit) -> unit
  (** Emit the text format, one [line] call per slot in order (the line
      without its newline): cells ["dest:value"] separated by single
      spaces, an empty line for an idle slot. *)

  val load : in_channel -> (t, int * string) result
  (** Read the text format back; [load] of what {!save} wrote for a trace
      of at least one slot is {!equal} to it.  [Error (line, reason)] names
      the first bad line (1-based): a cell that is not [dest:value] with
      integer fields, a negative [dest], a [value] below 1, or a file with
      no line at all. *)

  val equal : t -> t -> bool

  val signature : t -> string
  (** Deterministic hex digest of the full arrival content; equal
      signatures <=> equal traces (modulo hash collisions).  Stable across
      platforms and runs, so it can key caches and cross-process
      comparisons.  Invariant under {!pack}. *)

  val pack : t list -> t list
  (** Consolidate the traces into one shared off-heap slab per column and
      return zero-copy windows, in order.  Each result is {!equal} to its
      input (same {!signature}); only the memory topology changes — a
      parallel sweep's whole trace working set becomes three allocations
      that every domain reads through windows, instead of one triple of
      columns per trace. *)
end
