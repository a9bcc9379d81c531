(** Parameter sweeps reproducing the nine panels of the paper's Fig. 5.

    Each panel plots the empirical competitive ratio (OPT-reference
    throughput divided by policy throughput) of every policy against one
    swept parameter: the maximum work / value [k], the buffer size [B], or
    the per-queue speedup [C].  Panels 1-3 are the processing model, 4-6 the
    value model with independently uniform port and value, 7-9 the value
    model with value = port label.

    As in the paper, the number of output ports [n] equals [k]: the
    processing model uses the contiguous configuration (port [i] requires
    [i+1] cycles) and the value-per-port case assigns value [i+1] to port
    [i]. *)

type model = Proc | Value_uniform | Value_port
type axis = K | B | C

type base = {
  k : int;
  buffer : int;
  speedup : int;
  load : float;  (** normalized offered load; see {!Smbm_traffic.Scenario} *)
  mmpp : Smbm_traffic.Scenario.mmpp_params;
  slots : int;
  flush_every : int option;
  seed : int;
}

val default_base : base
(** k = 16, B = 64, C = 1, load = 2.0, 500 MMPP sources, 50_000 slots,
    flushouts every 2_500 slots, seed 42. *)

type panel = { number : int; model : model; axis : axis; xs : int list }

val panel : int -> panel
(** Panel definition for numbers 1-9 with the default sweep values.
    @raise Invalid_argument outside 1-9. *)

type point = { x : int; ratios : (string * float) list }
(** Policy name -> empirical competitive ratio at one sweep value. *)

type outcome = { panel : panel; points : point list }

val policy_names : model -> base -> string list
(** The series (policy names) a panel of this model produces, in order. *)

val setup :
  ?reference:base ->
  ?events:Smbm_obs.Flight.t ->
  model ->
  base ->
  Smbm_traffic.Workload.t * Instance.t list
(** The workload and instance list (OPT reference first, then every policy)
    of one point: [base] holds the point's effective parameters, [reference]
    (default [base]) the sweep's base the traffic intensity derives from.
    Exposed for benchmarks ({e bench/e2e.exe} times
    {!Experiment.run} over exactly these instances) and custom drivers;
    {!run_point} is this plus the run and the ratio extraction. *)

val trace_key : base:base -> model:model -> axis:axis -> x:int -> string
(** Cache key of the point's traffic: a deterministic rendering of exactly
    the parameters the generator consumes — model, slots, seed, load, MMPP
    shape, the reference [(k, speedup)] the intensity is derived from, and
    the effective [k] (labelling).  The swept [buffer]/[speedup] do not feed
    the generator, so every point of a B or C axis maps to the same key and
    may share one materialized trace; K-axis points all differ. *)

val materialize_trace :
  base:base ->
  model:model ->
  axis:axis ->
  x:int ->
  Smbm_traffic.Trace.Compact.t
(** Generate the point's full traffic once into a compact trace (flat
    arrays), consuming the workload exactly as a live run would — replaying
    it through {!run_point}'s [?trace] is bit-identical to live generation. *)

val default_max_cached_arrivals : int
(** Default budget (4M arrivals, ~100 MB of trace) above which panel runs
    fall back to live generation instead of materializing. *)

val trace_worth_caching :
  ?max_arrivals:int ->
  base:base ->
  model:model ->
  axis:axis ->
  x:int ->
  unit ->
  bool
(** Whether the point's estimated arrival count (mean workload rate times
    slots) fits the materialization budget.  [max_arrivals <= 0] disables
    caching outright. *)

val run_point :
  ?events:Smbm_obs.Flight.t ->
  ?spans:Smbm_obs.Span.t ->
  ?trace:Smbm_traffic.Trace.Compact.t ->
  base:base ->
  model:model ->
  axis:axis ->
  x:int ->
  unit ->
  (string * float) list
(** One sweep point: build configuration and workload, run all policies plus
    the OPT reference in lockstep, return ratios.  The workload intensity is
    derived from [base] (not the swept value), so traffic stays constant
    along an axis, as in the paper.

    [trace] replays a pre-materialized traffic stream (see
    {!materialize_trace}) instead of generating live — the caller is
    responsible for the trace matching the point's {!trace_key}.
    @raise Invalid_argument if the trace covers fewer slots than the run.

    [events] is handed to every instance, the OPT reference included (its
    events speak the bag's language, see {!Opt_ref.proc_instance}); [spans]
    gets one [point/x=<x>] span covering the run. *)

type detail = {
  ratio : float;
  jain : float;  (** Jain fairness index over per-port transmissions *)
  starved : int;  (** ports that transmitted nothing *)
  mean_latency : float;
  p99_latency : float;
  drop_rate : float;  (** dropped / arrivals *)
}

val run_point_detailed :
  base:base -> model:model -> axis:axis -> x:int -> (string * detail) list
(** Like {!run_point} but also reporting fairness, latency and loss — the
    dimensions the paper's introduction motivates (complete sharing can
    hamper fairness; starvation of expensive traffic). *)

type replicated = {
  mean : float;
  stddev : float;
  runs : int;
  dropped_non_finite : int;
      (** replicates whose ratio was NaN or infinite and therefore excluded
          from [mean]/[stddev]; [runs + dropped_non_finite] = seeds that
          produced this series.  Previously such drops were silent. *)
}

val aggregate_replicates :
  (string * float) list list -> (string * replicated) list
(** Per-policy mean and sample standard deviation over per-seed ratio lists.
    Non-finite ratios are excluded from the statistics and surfaced in
    [dropped_non_finite] rather than silently discarded.  The series and
    their order come from the first list.  Exposed so that parallel runners
    ({!Smbm_par.Par_sweep}) aggregate replicate results with the exact same
    arithmetic as {!run_point_replicated}. *)

val run_point_replicated :
  base:base ->
  model:model ->
  axis:axis ->
  x:int ->
  seeds:int list ->
  (string * replicated) list
(** {!run_point} repeated over independent seeds, with per-policy mean and
    sample standard deviation of the ratio. *)

val run_panel :
  ?base:base ->
  ?events:Smbm_obs.Flight.t ->
  ?spans:Smbm_obs.Span.t ->
  ?xs:int list ->
  ?max_cached_arrivals:int ->
  int ->
  outcome
(** Run panel [number] (1-9), overriding the sweep values with [xs] when
    given.  [events]/[spans] as in {!run_point}, plus one [panel/<n>]
    span over the whole panel.

    Points sharing a {!trace_key} (every B- or C-axis panel) materialize
    their traffic once and replay it — a 7-point B panel generates once
    instead of seven times, with bit-identical results.
    [max_cached_arrivals] bounds the materialization (default
    {!default_max_cached_arrivals}; [0] disables the cache). *)

val objective : model -> [ `Packets | `Value ]
