(** Drives a {!Smbm_core.Policy} over a switch as a steppable {!Instance}:
    one engine for both switch models.

    A slot is the same in the processing model (Section III) and the value
    model (Section IV): admission with push-out, then one transmission
    phase.  Only the queue discipline differs, and that lives in the
    switch, so the layer above it is written once as {!Make} and
    instantiated as {!Proc} and {!Value}.

    The engine enforces decision legality: [accept] requires free space (the
    switch checks), [push_out] is only legal when the buffer is full (and the
    switch checks the victim queue is non-empty).  An illegal decision raises
    [Invalid_argument] — a policy bug fails fast instead of skewing an
    experiment.

    Metrics conservation is checked at every flushout, so a policy that
    double-counts fails during the run, not at the final report.

    The objective is transmitted value ([metrics.transmitted_value]).  On a
    {!Smbm_core.Proc_config.unit_priced} configuration (the processing
    model) every packet is stored at value 1 whatever its arrival carries,
    so the value equals the packet count; otherwise (the combined work +
    value model, and the value model) the arrival's value is stored, and an
    out-of-range value is rejected by the switch. *)

(** The switch operations the engine drives.  {!Smbm_core.Proc_switch} and
    {!Smbm_core.Value_switch} both provide them under these names. *)
module type SWITCH = sig
  type t
  type config

  val create : config -> t

  val unit_priced : config -> bool
  (** Whether every arrival is stored at value 1, whatever it carries.
      Read once per engine, at creation. *)

  val n : t -> int
  val is_full : t -> bool
  val accept : t -> dest:int -> value:int -> unit

  val push_out : t -> victim:int -> int
  (** Evict one packet of queue [victim]; returns its value. *)

  val transmit_phase :
    t -> on_transmit:(dest:int -> value:int -> arrival:int -> unit) -> int

  val occupancy : t -> int
  val advance_slot : t -> unit
  val flush : t -> int
  val check_invariants : t -> unit
  val buffer : t -> int
  val set_buffer : t -> int -> unit
  val queue_length : t -> int -> int
end

module type S = sig
  module Switch : SWITCH

  val create :
    ?name:string ->
    ?events:Smbm_obs.Flight.t ->
    ?distributions:bool ->
    Switch.config ->
    Switch.t Smbm_core.Policy.t ->
    Instance.t * Switch.t
  (** Fresh instance plus its underlying switch (exposed for inspection in
      tests and examples).  [name] defaults to the policy's name.  Per-port
      transmission tallies are in the instance's [ports].

      [distributions] (default [true]) records, besides the counters, a
      latency sample and a {!Port_stats} update per transmitted packet and
      an occupancy sample per slot.  At [false] the instance is
      counters-only: its transmit hook only counts, [end_slot] samples no
      occupancy, [ports] is [None], and its metrics hold no histogram
      ({!Metrics.create}); decisions, counters and events are the same.
      Sweep ratio points, which read two counters, build it so.  [events]
      receives every per-slot event (arrival, accept, push-out, drop,
      transmit, slot-end, flush) into its allocation-free ring, with this
      instance's name as source (interned once at creation).  Recording
      changes no decision and no counter.

      [arrive_batch] is the slot path: the batch's arrivals run through
      one body that counts into instance-local fields, settled into
      [metrics] once at the end of the batch ({!Metrics.settle});
      [transmit] settles its count and value once per phase, and (with
      [distributions]) samples latency per packet.  [arrive_dv] is a batch of one and settles
      immediately.  Both settle also when the policy or the switch raises,
      so the counters then read as if every event were recorded one by
      one: the arrival that raised counted, no admission for it.

      Event slots and latencies come from the engine's own clock, advanced
      by [end_slot] beside {!SWITCH.advance_slot}: advance the returned
      switch only through [end_slot]. *)

  val instance :
    ?name:string ->
    ?events:Smbm_obs.Flight.t ->
    ?distributions:bool ->
    Switch.config ->
    Switch.t Smbm_core.Policy.t ->
    Instance.t
  (** [fst (create ...)]. *)

  val create_controlled :
    ?name:string ->
    ?events:Smbm_obs.Flight.t ->
    Switch.config ->
    Switch.t Smbm_core.Policy.t ref ->
    Instance.t * Switch.t
  (** Like {!create}, but the victim policy is read through the given ref
      on {e every} admission, so the caller may swap it mid-run (the
      {!Smbm_serve} daemon does this at slot boundaries).  [name] defaults
      to the initial policy's name and does not change on swap — event
      [src] fields stay stable across reconfigurations.  Always records
      distributions. *)
end

module Make (Switch : SWITCH) : S with module Switch = Switch

module Proc :
  S
    with type Switch.t = Smbm_core.Proc_switch.t
     and type Switch.config = Smbm_core.Proc_config.t
(** The processing model, and the combined work + value model at
    [max_value > 1]: FIFO work queues. *)

module Value :
  S
    with type Switch.t = Smbm_core.Value_switch.t
     and type Switch.config = Smbm_core.Value_config.t
(** The value model: per-port priority queues of values.  Never
    unit-priced. *)
