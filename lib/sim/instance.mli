(** A uniform handle on one running switch (a policy over a switch model, or
    the single-priority-queue OPT reference), so that an experiment can step
    heterogeneous instances in lockstep over one arrival stream. *)

open Smbm_core

type t = {
  name : string;
  arrive_dv : dest:int -> value:int -> unit;
      (** offer one arriving packet, unpacked (no [Arrival.t] record needs
          to exist) *)
  arrive_batch : (Arrival_batch.t -> unit) option;
      (** whole-slot arrival phase: behaviourally identical to folding
          [arrive_dv] over the batch in order (same decisions, events and
          counters).  The engines and both OPT references install one and
          settle their counters once per batch through it; [None] falls
          back to [arrive_dv] per arrival.  A wrapper may replace it, e.g.
          to time a slot's arrivals as a unit. *)
  transmit : unit -> unit;  (** run one transmission phase *)
  end_slot : unit -> unit;
      (** per-slot bookkeeping (clock; the occupancy sample unless
          counters-only) *)
  flush : unit -> unit;  (** discard all buffered packets *)
  occupancy : unit -> int;
  metrics : Metrics.t;
  ports : Port_stats.t option;
      (** per-port transmission counters; [None] for references without
          per-port structure (the single-PQ OPT) and for counters-only
          instances ([Engine.S.create ~distributions:false]) *)
  check : unit -> unit;  (** assert internal invariants (test hook) *)
}

val step_batch : t -> batch:Arrival_batch.t -> unit
(** One full slot: arrival phase (the batch in order, through
    [arrive_batch] or else [arrive_dv]), transmission phase, bookkeeping.
    Allocation-free. *)

val arrival_paths :
  settle:(unit -> unit) ->
  (dest:int -> value:int -> unit) ->
  (dest:int -> value:int -> unit) * (Arrival_batch.t -> unit)
(** [arrival_paths ~settle arrive] is [(arrive_dv, arrive_batch)] for an
    instance whose per-arrival body [arrive] counts into fields that
    [settle] folds into its metrics: the batch runs [arrive] over every
    arrival and settles once, [arrive_dv] settles after its one arrival,
    and both settle before re-raising when [arrive] raises. *)
