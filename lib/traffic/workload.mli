(** A workload is the per-slot arrival stream fed to every switch instance
    of an experiment.  Generating it once per slot and fanning it out keeps
    compared instances on byte-identical traffic.

    {!next_into} fills a caller-supplied {!Smbm_core.Arrival_batch.t} in
    place; it is the only way to read a workload, and allocation-free for
    bank and replayed workloads.

    Generator functions ({!of_fun}, {!of_fun_into}) receive a slot index
    equal to the number of slots already consumed from that workload: they
    see 0, 1, 2, ... in order, exactly once each.  Stateful generators may
    therefore ignore the argument and pure ones may index with it. *)

open Smbm_core

type t

val of_bank : Source_bank.t -> t
(** The bank's slots, one {!Source_bank.fill} each (the paper's 500
    interleaved sources). *)

val of_fun : (int -> Arrival.t list) -> t
(** Arbitrary slot -> arrivals function (slot numbers start at 0): the
    literal notation for hand-written traffic, e.g. the adversarial
    lower-bound constructions. *)

val of_fun_into : (Arrival_batch.t -> int -> unit) -> t
(** Allocation-free generator: [f batch i] appends slot [i]'s arrivals onto
    the empty [batch].  Used by {!Trace.Compact.replay}. *)

val of_slots : Arrival.t list array -> t
(** Fixed finite schedule; empty after the last slot. *)

val next_into : t -> Arrival_batch.t -> unit
(** Clear [batch], then fill it with the next slot's arrivals in input-port
    order. *)

val mean_rate : t -> float option
(** Long-run packets per slot, when the workload knows it (bank workloads
    only). *)
