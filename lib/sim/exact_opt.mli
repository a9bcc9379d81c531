(** Exact offline optimum for tiny instances, by exhaustive search.

    Since an offline optimum never needs to push out (any eviction can be
    replaced by not accepting the evicted packet), the search branches only
    on accept/drop per arriving packet; transmission is deterministic.
    Memoization is on (time position, buffer state), which stays small for
    toy parameters (B up to ~6, a handful of slots).

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
(** Maximum number of packets any (offline, clairvoyant) algorithm can
    transmit when the given arrivals are followed by [drain] empty slots.
    Intended for tiny instances; cost is exponential in the number of
    arrivals before memoization.

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

val proc_compact :
  ?events:Smbm_obs.Flight.t ->
  ?name:string ->
  Proc_config.t ->
  Smbm_traffic.Trace.Compact.t ->
  drain:int ->
  int
(** {!proc} on a {!Smbm_traffic.Trace.Compact} trace (e.g. one shared by
    the sweep trace cache), expanded once to per-slot lists before the
    search. *)

val value_compact :
  ?events:Smbm_obs.Flight.t ->
  ?name:string ->
  Value_config.t ->
  Smbm_traffic.Trace.Compact.t ->
  drain:int ->
  int
(** {!value} on a compact trace, same conventions. *)
