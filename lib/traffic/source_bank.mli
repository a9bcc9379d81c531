(** A bank of independent Markov-modulated on-off sources (Section V-A),
    stored as columns.

    Each source is a two-state Markov chain that toggles between "on" and
    "off" each slot with the bank's shared transition probabilities; while
    on it emits a batch of packets per slot from the shared emission law,
    each labelled by the shared {!Label.t}.  Every source owns two
    SplitMix64 streams, split from [rng] in source order: one drives its
    chain and emissions, the other its labels.  {!fill} steps all sources
    in one allocation-free loop ({!Smbm_prelude.Rng.Bank}). *)

open Smbm_prelude

type emission =
  | Poisson of float  (** Poisson batches with this on-state mean *)
  | Heavy_tail of { alpha : float; max_batch : int; mean : float }
      (** Pareto batches (tail index [alpha], capped at [max_batch])
          adjusted to the on-state [mean]: thinned when the raw Pareto
          mean exceeds it, topped up with an independent Poisson stream
          otherwise *)

type t

val create :
  rng:Rng.t ->
  sources:int ->
  p_on_to_off:float ->
  p_off_to_on:float ->
  emission:emission ->
  label:Label.t ->
  t
(** Each source's initial state is drawn from the stationary distribution.
    @raise Invalid_argument if [sources < 0], a probability is outside
    [\[0, 1\]] or NaN, a mean is negative or not finite, [alpha] is not
    finite and positive, or [max_batch < 1]. *)

val fill : t -> Smbm_core.Arrival_batch.t -> unit
(** Step every source one slot and append the slot's packets to the batch.
    Draw order: source by source, the transition, then the emission, then
    one label per packet.  The appended segment is the reverse of that
    order (the historical order of prepending each draw onto a list).
    Allocates nothing once the bank's scratch and the batch have grown to
    the largest slot seen. *)

val is_on : t -> int -> bool
(** Whether source [i] ended the last slot in the on state. *)

val duty_cycle : t -> float
(** Stationary probability of the on state. *)

val mean_rate : t -> float
(** Long-run packets per slot of the whole bank: sources x duty cycle x
    on-state mean. *)
