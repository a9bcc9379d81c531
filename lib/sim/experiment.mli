(** Lockstep execution of several switch instances over one arrival stream,
    and empirical competitive ratios against a reference instance. *)

type t = {
  slots : int;
  flush_every : int option;
      (** clear all buffers every this many slots (the paper's periodic
          flushouts); [None] disables *)
  check_every : int option;
      (** run every instance's invariant checks every this many slots;
          [None] disables (default in production runs) *)
}

val default : t
(** [slots = 200_000], flushouts every 10_000 slots, no checking. *)

val run :
  ?params:t -> workload:Smbm_traffic.Workload.t -> Instance.t list -> unit
(** Step all instances through [params.slots] slots of the workload.
    Arrivals of a slot are offered to every instance, then every instance
    runs its transmission phase; flushouts apply at the end of a slot.

    The slot loop fills one reusable {!Smbm_core.Arrival_batch.t} per slot
    with {!Smbm_traffic.Workload.next_into} and steps each instance through
    {!Instance.step_batch}: it allocates nothing in steady state. *)

val ratio :
  objective:[ `Packets | `Value ] -> opt:Instance.t -> alg:Instance.t -> float
(** Empirical competitive ratio [opt / alg] on the chosen objective.
    Infinite when the algorithm transmitted nothing but OPT did; 1 when both
    transmitted nothing. *)

val ratios :
  objective:[ `Packets | `Value ] ->
  opt:Instance.t ->
  algs:Instance.t list ->
  (string * float) list
