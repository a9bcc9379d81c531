(** A sharded bank of MMPP on-off sources — the daemon's synthetic ingest.

    The paper's workload interleaves hundreds of independent on-off sources;
    stepping them all on the ingest domain caps the arrival rate the daemon
    can offer.  The bank splits the sources into [shards] independent
    {!Smbm_traffic.Workload.t}s (each a {!Smbm_traffic.Scenario} preset over
    its share of the sources, with its own derived seed) and steps the
    shards in parallel on an optional {!Smbm_par.Pool}.

    Sharding preserves the traffic model: each shard's normalized load is
    scaled by its source share, so the per-source on-state emission rate is
    identical to the unsharded bank's, and the superposition has the same
    aggregate rate and burstiness structure.  A single shard (the default)
    fills the caller's batch directly.  Otherwise each shard owns a private
    {!Smbm_core.Arrival_batch.t}; {!fill} steps every shard (in parallel if
    a pool is given) and appends the shard batches in shard order — the
    output is a deterministic function of [(seed, shards)], independent of
    the pool's job count. *)

open Smbm_core

type t

val create :
  ?mmpp:Smbm_traffic.Scenario.mmpp_params ->
  ?pool:Smbm_par.Pool.t ->
  ?shards:int ->
  Smbm_sim.Model.t ->
  load:float ->
  seed:int ->
  unit ->
  t
(** [shards] defaults to 1 (plain single-workload bank).  Sources are
    split as evenly as possible (the first [sources mod shards] shards get
    one extra).  A [pool] only helps when [shards > 1].
    @raise Invalid_argument if [load] is negative or not finite,
    [shards < 1], [shards > sources], or the MMPP parameters are out of
    range. *)

val fill : t -> Arrival_batch.t -> unit
(** Clear [batch], then fill it with the next slot's arrivals (shard 0's
    packets first).  One call consumes one slot from every shard. *)

val shards : t -> int
