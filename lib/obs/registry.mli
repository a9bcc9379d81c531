(** Named counters, gauges and histograms with labeled JSONL snapshots.

    A registry is the single home for a run's aggregate statistics:
    instruments are registered by name, updated through their handles (an
    increment is one field write — cheap enough for per-packet hot paths),
    and read out as a deterministic name-sorted snapshot.  {!Smbm_sim}'s
    [Metrics] is a thin view over one registry per instance. *)

type t
type counter
type gauge
type histogram

val create : unit -> t

val counter : t -> string -> counter
(** Register (or retrieve) the counter [name].
    @raise Invalid_argument if [name] is registered with another kind. *)

val gauge : t -> string -> gauge

val histogram : t -> ?max_value:float -> string -> histogram
(** Log-bucketed histogram (see {!Smbm_prelude.Histogram}, at its default
    10 buckets per decade) paired with running moments; [max_value]
    applies only on first registration. *)

(* ----- updates and reads ----- *)

val incr : counter -> unit
val add : counter -> int -> unit
(** @raise Invalid_argument on negative increments. *)

val counter_value : counter -> int
val set : gauge -> float -> unit

val set_int : gauge -> int -> unit
(** [set_int g x] is [set g (float_of_int x)] without boxing a float: the
    per-slot form for a level counted in items. *)

val gauge_value : gauge -> float
val observe : histogram -> float -> unit
val observe_int : histogram -> int -> unit
(** [observe_int h x] records exactly what [observe h (float_of_int x)]
    records, without boxing a float: the form for samples counted in slots
    on a per-packet or per-slot path. *)

val observe_scaled : histogram -> int -> float -> unit
(** [observe_scaled h x scale] records exactly what
    [observe h (float_of_int x *. scale)] records, converting inside the
    histogram, so a literal [scale] boxes nothing: the per-slot form for
    clock readings ([observe_scaled h ns 1e-3] records microseconds). *)

val histogram_stats : histogram -> Smbm_prelude.Running_stats.t
val histogram_values : histogram -> Smbm_prelude.Histogram.t

(* ----- snapshots ----- *)

type sample =
  | Count of int
  | Level of float
  | Summary of {
      n : int;
      mean : float;
      p50 : float;
      p95 : float;
      p99 : float;
      max : float;
      buckets_per_decade : int;
      buckets : (int * int) list;
          (** Non-empty log buckets as [(index, count)], sorted by index —
              the full shape, so two cumulative snapshots can be diffed
              into a windowed distribution (see {!Delta}). *)
    }

val snapshot : t -> (string * sample) list
(** All instruments, sorted by name. *)

val to_jsonl : ?labels:(string * string) list -> t -> string list
(** One flat JSON object per instrument
    ([{"metric":...,"type":...,...}]), with [labels] appended to every
    line; sorted by metric name.  Histogram lines carry the quantile
    summary plus ["buckets_per_decade"] and a compact ["buckets"] string
    ("index:count ..."). *)

val clear : t -> unit
(** Reset every instrument to its initial state (registrations survive). *)

(** Rates from two cumulative snapshots taken [dt] seconds apart: the one
    windowed-rate computation.  `smbm_cli watch` diffs two consecutive
    polls of the stats socket with it, and the serve daemon's telemetry
    window diffs a retained publication against the current one. *)
module Delta : sig
  type t

  val diff :
    dt:float ->
    earlier:(string * sample) list ->
    later:(string * sample) list ->
    t
  (** Instruments present only in [later] diff against zero; gauges are
      skipped (levels are not diffable); counter and bucket regressions
      (a racy snapshot pair) clamp to zero.
      @raise Invalid_argument unless [dt > 0]. *)

  val names : t -> string list

  val delta : t -> string -> int option
  (** Counter increase over the interval; [None] for non-counters. *)

  val rate : t -> string -> float option
  (** [delta /. dt]. *)

  val hist_count : t -> string -> int option
  (** Histogram observations during the interval. *)

  val quantile : t -> string -> float -> float option
  (** Quantile of the interval's observations, reconstructed from bucket
      count differences (see
      {!Smbm_prelude.Histogram.quantile_of_buckets}). *)
end
