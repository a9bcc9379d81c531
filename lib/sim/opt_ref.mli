(** The paper's stand-in for the optimal clairvoyant algorithm (Section V-A).

    "Since it is computationally prohibitive to compute the true optimal
    policy, we used a single priority queue that first processes the
    smallest packets (resp., packets with largest value) and has kC cores."

    Both variants hold the whole buffer as one priority queue over a bounded
    key universe and receive [cores] processing cycles per slot.  The
    processing variant spends them SRPT-style, shortest-remaining-first and
    run-to-completion (cycles may stack on one packet within a slot, as a
    real queue's speedup allows); the value variant transmits the [cores]
    most valuable unit-work packets.  Admission is greedy push-out: when
    full, the worst packet (largest residual work / smallest value) is
    evicted in favour of a better arrival.  This relaxes the real switch
    (no per-port FIFO constraint, cycles freely distributable), so its
    throughput upper-bounds OPT's; measured "competitive ratios" are
    therefore upper bounds, exactly as in the paper's figures. *)

open Smbm_core

val proc_instance :
  ?name:string ->
  ?events:Smbm_obs.Flight.t ->
  ?distributions:bool ->
  Proc_config.t ->
  Instance.t
(** Processing model: smallest-residual-first, with [n * speedup] cores
    ("kC cores" in the paper's contiguous configuration).

    [events], when given, records the reference's admission decisions and
    per-slot aggregates so {!Smbm_forensics.Diff} can align a policy trace
    against the reference on the same arrival instance.  The reference has
    no ports, so push-out victims are recorded as bag keys and transmissions
    as per-slot [Transmit_bulk] events (dest = -1); recording allocates
    nothing and never changes a decision.

    The reference records no latency (its bag has no per-packet identity)
    and has no [ports].  [distributions] (default [true]) samples its
    occupancy once per slot; at [false] its metrics are counters-only
    ({!Metrics.create}) and [end_slot] takes no sample. *)

val value_instance :
  ?name:string ->
  ?events:Smbm_obs.Flight.t ->
  ?distributions:bool ->
  Value_config.t ->
  Instance.t
(** Value model: largest-value-first, unit work, with [n * speedup]
    cores.  [events] and [distributions] as in {!proc_instance}. *)
