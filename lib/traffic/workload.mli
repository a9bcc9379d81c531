(** A workload is the per-slot arrival stream fed to every switch instance
    of an experiment.  Generating it once per slot and fanning it out keeps
    compared instances on byte-identical traffic.

    {2 Slot-argument convention}

    Generator functions ({!of_fun}, {!of_fun_into}) receive a slot index.
    The convention — uniform across every constructor and combinator — is:
    the index always equals the number of slots already consumed {e from
    that workload}, and slots are consumed strictly sequentially (the
    function sees 0, 1, 2, ... in order, exactly once each).  Combinators
    ({!merge}, {!map}, {!take}) advance their children one slot per parent
    slot, so a child's function also sees its own consecutive count.
    Stateful generators may therefore ignore the argument and pure ones may
    index with it; the two styles agree by construction.  (Historically
    [merge]/[map] threaded a private counter while [of_slots]/[take] used
    the argument — observably identical through {!next}, but two
    conventions; there is now one.)

    {2 Batched pipeline}

    {!next_into} fills a caller-supplied {!Smbm_core.Arrival_batch.t} in
    place and is the allocation-free hot path; {!next} is a thin
    compatibility shim over it that converts the slot to a list (backed by
    a private reusable batch, so existing call sites keep working at the
    old cost). *)

open Smbm_core

type t

val of_bank : Source_bank.t -> t
(** The bank's slots, one {!Source_bank.fill} each (the paper's 500
    interleaved sources). *)

val of_fun : (int -> Arrival.t list) -> t
(** Arbitrary slot -> arrivals function (slot numbers start at 0); used by
    the adversarial lower-bound constructions. *)

val of_fun_into : (Arrival_batch.t -> int -> unit) -> t
(** Allocation-free generator: [f batch i] appends slot [i]'s arrivals onto
    [batch] (which may already hold arrivals of merged siblings — append,
    never clear).  Used by {!Trace.Compact.replay}. *)

val of_slots : Arrival.t list array -> t
(** Fixed finite schedule; empty after the last slot. *)

val merge : t list -> t
(** Superposition: each slot concatenates the component workloads' arrivals
    (in list order).  Useful for mixing background MMPP traffic with an
    adversarial trickle.  The merged rate is the sum of known rates (known
    only if every component knows its own). *)

val map : (Arrival.t -> Arrival.t) -> t -> t
(** Relabel arrivals on the fly (e.g. remap ports, rescale values). *)

val take : int -> t -> t
(** The first [n] slots of the workload; empty afterwards. *)

val next : t -> Arrival.t list
(** Arrivals of the next slot, in input-port order (compatibility shim;
    allocates the returned list). *)

val next_into : t -> Arrival_batch.t -> unit
(** Clear [batch], then fill it with the next slot's arrivals in input-port
    order.  Consumes the same RNG streams as {!next}: interleaving the two
    on one workload yields the same arrival sequence.  Steady-state cost is
    allocation-free. *)

val slot : t -> int
(** Number of slots already consumed. *)

val mean_rate : t -> float option
(** Long-run packets per slot, when the workload knows it (bank workloads
    only). *)
