(** Counters accumulated by one switch instance over a run — a thin view
    over an {!Smbm_obs.Registry}: every counter and histogram lives in the
    instance's registry under a stable name ([arrivals], [accepted], ...,
    [latency], [occupancy]), so a run's aggregates can be snapshotted as
    labeled JSONL without any parallel bookkeeping.  Updates go through the
    [record_*] functions — the engines own the semantics of each count, and
    direct field-poking is no longer possible.

    Conservation invariant (checked by {!check_conservation}, and enforced
    by the engines at every flush and at the end of every
    {!Experiment.run}): [arrivals = accepted + dropped] and
    [accepted = transmitted + pushed_out + flushed + in_buffer]. *)

open Smbm_prelude

type t

val create : ?distributions:bool -> unit -> t
(** The latency histogram's bucketed range ends at [1e7] slots; samples
    above it are clamped into the last bucket.

    [distributions] (default [true]) registers the [latency] and
    [occupancy] histograms.  At [false] the metrics are counters-only:
    neither histogram exists or appears in {!to_jsonl}, and every
    function that records or reads one ({!record_transmit},
    {!latency_histogram}, {!record_occupancy}, {!latency_stats},
    {!latency_hist}, {!occupancy_stats}) raises [Invalid_argument] rather
    than report an empty distribution. *)

val registry : t -> Smbm_obs.Registry.t
(** The backing registry (for snapshots; the instruments themselves are
    reachable through it by name). *)

val clear : t -> unit

(* ----- recording (engine-facing) ----- *)

val record_arrival : t -> unit
(** A packet was offered to the instance. *)

val record_accept : t -> unit
(** The arrival was admitted to the buffer. *)

val record_drop : t -> unit
(** The arrival was rejected. *)

val record_push_out : t -> unit
(** An admitted packet was evicted in favour of an arrival. *)

val record_admissions :
  t -> arrivals:int -> accepted:int -> dropped:int -> pushed_out:int -> unit
(** Batch form of the four calls above: what {!settle} records for one
    batch of arrivals. *)

val record_transmit : t -> value:int -> latency:int -> unit
(** One packet fully processed and sent: counts it, adds [value] to the
    value objective and [latency] (slots since arrival) to the latency
    histogram. *)

val record_transmissions : t -> count:int -> value:int -> unit
(** Batch form without latency samples — for references (OPT) that
    transmit from a bag with no per-packet identity. *)

val latency_histogram : t -> Smbm_obs.Registry.histogram
(** The latency instrument, for an engine that counts its transmissions in
    a {!Tally} and records one latency sample per packet with
    {!Smbm_obs.Registry.observe_int} — together, what [record_transmit]
    records. *)

(** Counts accumulated on an engine's slot path and folded into the
    registry by {!settle}, once per batch of arrivals and once per
    transmission phase: a field increment costs no call, a registry
    update costs one. *)
module Tally : sig
  type t = {
    mutable arrivals : int;
    mutable accepted : int;
    mutable dropped : int;
    mutable pushed_out : int;
    mutable transmitted : int;
    mutable transmitted_value : int;
  }

  val create : unit -> t
end

val settle : t -> Tally.t -> unit
(** Record the tally ({!record_admissions}, {!record_transmissions}) and
    zero it. *)

val record_flush : t -> int -> unit
(** [n] packets discarded by a periodic flushout. *)

val record_occupancy : t -> int -> unit
(** Buffer occupancy sampled once per slot. *)

(* ----- reads ----- *)

val arrivals : t -> int
val accepted : t -> int
val dropped : t -> int
val pushed_out : t -> int
val transmitted : t -> int
val transmitted_value : t -> int
val flushed : t -> int

val in_buffer : t -> int
(** Packets still buffered, derived from the counters. *)

val latency_stats : t -> Running_stats.t
(** Admission-to-transmission delay in slots, over transmitted packets. *)

val latency_hist : t -> Histogram.t
(** Same samples, log-bucketed for quantiles. *)

val occupancy_stats : t -> Running_stats.t
(** Occupancy samples, one per slot.

    The three reads above raise [Invalid_argument] on counters-only
    metrics ([create ~distributions:false]). *)

val check_conservation : t -> unit
(** @raise Invalid_argument when the counters are inconsistent. *)

val throughput_of : [ `Packets | `Value ] -> t -> int

val to_jsonl : ?labels:(string * string) list -> t -> string list
(** The registry snapshot as JSONL metric lines, [labels] (e.g.
    [("policy", name)]) appended to every line. *)

val pp : Format.formatter -> t -> unit
(** One line: the seven counters, the derived buffered count, and — when
    latency is recorded and any packet was transmitted — latency
    p50/p95/p99. *)
