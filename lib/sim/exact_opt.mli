(** Exact offline optimum for tiny instances, by exhaustive search.

    Since an offline optimum never needs to push out (any eviction can be
    replaced by not accepting the evicted packet), the search branches only
    on accept/drop per arriving packet; transmission is deterministic.
    Memoization is on (time position, buffer state), which stays small for
    toy parameters (B up to ~6, a handful of slots).

    Both models run the same search and the same argmax replay; they
    differ only in the queue discipline: FIFO work queues with a
    head-of-line residual, or value-sorted unit-work queues.

    Purpose: ground truth.  Tests use it to certify per trace that
    [policy <= exact <= single-PQ reference], and to check LWD's
    2-competitive guarantee (Theorem 7) against the *true* optimum rather
    than the relaxed reference. *)

open Smbm_core

val proc :
  ?events:Smbm_obs.Flight.t ->
  ?name:string ->
  Proc_config.t ->
  Arrival.t list array ->
  drain:int ->
  int
(** Maximum total value any (offline, clairvoyant) algorithm can transmit
    through the FIFO work queues when the given arrivals are followed by
    [drain] empty slots.  On a {!Proc_config.unit_priced} configuration
    (the processing model) every packet is worth 1 whatever its arrival
    carries, so this is the maximum number of packets; with
    [max_value > 1] (the combined work + value model) it is the arrivals'
    own values.  Intended
    for tiny instances; cost is exponential in the number of arrivals
    before memoization.

    When [events] is given, the argmax path is replayed through the memo
    table and emitted as an event trace under source [name] (default
    ["EXACT"]): [Arrival]/[Accept]/[Drop] per arrival, per-port
    [Transmit_bulk] and [Slot_end] per slot.  The optimum never pushes out,
    so the trace contains no [Push_out] events.  Ties between accepting and
    skipping resolve to skip, matching the scored recursion.  Zero cost when
    absent. *)

val value :
  ?events:Smbm_obs.Flight.t ->
  ?name:string ->
  Value_config.t ->
  Arrival.t list array ->
  drain:int ->
  int
(** Maximum total transmitted value, same conventions (including the
    [events] trace semantics of {!proc}). *)
