(** Parallel mirrors of {!Smbm_sim.Sweep}, bit-identical to the sequential
    path.

    Every entry point shards work at the granularity of one independent
    simulation (a sweep point, or one replicate seed of a point).  Each task
    is a pure function of its parameters — the per-task RNG is constructed
    inside the task from a seed fixed at submission time (the point's [base]
    seed, or a replicate seed derived by deterministic {!Smbm_prelude.Rng}
    splitting) — and {!Pool} returns results in submission order.  Outputs
    are therefore identical to the sequential functions for every value of
    [jobs] and any scheduling of the workers.

    [jobs] defaults to {!Pool.default_jobs} ([SMBM_JOBS] or
    [Domain.recommended_domain_count ()]); [jobs:0] runs inline on the
    caller.  [on_tick] reports completed tasks (simulations), e.g. for a
    progress line on stderr.  [on_timing] receives the pool's aggregate
    {!Pool.timing} once the batch is done — wall-clock derived, so route it
    to stderr or a strippable [[time]] line, never into deterministic
    output.  [spans] collects per-point spans across worker domains (the
    collector is mutex-guarded); span {e record order} is
    schedule-dependent even though traces are not. *)

open Smbm_sim

val split_seeds : seed:int -> int -> int list
(** [split_seeds ~seed n]: [n] independent replicate seeds derived from
    [seed] by {!Smbm_prelude.Rng.split} — one split child per task, its
    first 64-bit output truncated to [int].  Deterministic in [seed] and
    [n]; a prefix is stable as [n] grows. *)

val run_points :
  ?jobs:int ->
  ?on_tick:(int -> unit) ->
  ?on_timing:(Pool.timing -> unit) ->
  ?spans:Smbm_obs.Span.t ->
  ?max_cached_arrivals:int ->
  base:Sweep.base ->
  model:Sweep.model ->
  axis:Sweep.axis ->
  xs:int list ->
  unit ->
  (int * (string * float) list) list
(** [Sweep.run_point] at every [x] of [xs], points sharded across the pool;
    equals the sequential list of [(x, Sweep.run_point ... ~x)].

    Points sharing a {!Sweep.trace_key} replay one compact trace,
    materialized on the caller before the pool starts and shared read-only
    across domains (immutable once built).  [max_cached_arrivals] bounds
    materialization as in {!Sweep.run_panel}; replays are bit-identical to
    live generation, so outcomes are unchanged. *)

val run_panel :
  ?jobs:int ->
  ?on_tick:(int -> unit) ->
  ?on_timing:(Pool.timing -> unit) ->
  ?spans:Smbm_obs.Span.t ->
  ?max_cached_arrivals:int ->
  ?base:Sweep.base ->
  ?xs:int list ->
  int ->
  Sweep.outcome
(** Parallel {!Sweep.run_panel}: same outcome, points sharded across the
    pool (trace sharing as in {!run_points}). *)

type traced = {
  outcome : Sweep.outcome;
  events : Smbm_obs.Event.t list;
      (** every instance's per-slot events, points in sweep order;
          each point whose ring buffer evicted anything is preceded by its
          [Truncated] marker ({!Smbm_obs.Flight.dump}) *)
  dropped_events : int;
      (** events evicted by per-point ring buffers at [trace_cap] *)
}

val default_trace_cap : int
(** Per-point ring capacity (in events) used when [trace_cap] is omitted
    ([65_536] events). *)

val run_panel_traced :
  ?jobs:int ->
  ?on_tick:(int -> unit) ->
  ?on_timing:(Pool.timing -> unit) ->
  ?spans:Smbm_obs.Span.t ->
  ?trace_cap:int ->
  ?max_cached_arrivals:int ->
  ?base:Sweep.base ->
  ?xs:int list ->
  int ->
  traced
(** {!run_panel} with event tracing: every task creates a private
    {!Smbm_obs.Flight} ring (scope [x=<x>], capacity [trace_cap]) handed to
    every instance of the point (OPT included), and the per-point event
    lists are concatenated in submission order — so the event stream is
    byte-identical for every [jobs] value.  The outcome equals the
    untraced {!run_panel} exactly (recording touches no decision and no
    counter). *)

val run_panels :
  ?jobs:int ->
  ?on_tick:(int -> unit) ->
  ?on_timing:(Pool.timing -> unit) ->
  ?max_cached_arrivals:int ->
  ?base:Sweep.base ->
  int list ->
  Sweep.outcome list
(** [run_panels numbers] runs several Fig. 5 panels with {e all} their
    points sharded across one pool — e.g. [run_panels [1;2;...;9]] spreads
    the full figure's 60-odd simulations over the domains instead of
    parallelizing only within a panel.  Equals
    [List.map (Sweep.run_panel ?base) numbers].

    Trace sharing is cross-panel: within one model, the B panel, the C
    panel and the K panel's base point all carry the same
    {!Sweep.trace_key}, so the full figure materializes one trace per model
    and replays it sixteen times. *)

val run_point_replicated :
  ?jobs:int ->
  ?on_tick:(int -> unit) ->
  ?on_timing:(Pool.timing -> unit) ->
  base:Sweep.base ->
  model:Sweep.model ->
  axis:Sweep.axis ->
  x:int ->
  seeds:int list ->
  unit ->
  (string * Sweep.replicated) list
(** Parallel {!Sweep.run_point_replicated}: one task per seed, aggregated
    with {!Sweep.aggregate_replicates} (identical arithmetic and order).
    @raise Invalid_argument on an empty [seeds]. *)
