(** Sliding-window counters and histograms over a fixed ring of time
    buckets.

    A window of [w] seconds is split into [buckets] equal cells; every
    write lands in the cell of its instant and {e advancing} the window —
    done implicitly by every operation — clears at most [buckets] stale
    cells no matter how far the clock jumped, so keeping the window
    current is amortized O(1).

    Every operation takes the caller's clock as [~now], an integer instant
    in nanoseconds: the module never reads a clock, which makes window
    arithmetic deterministic under an injected clock (tests) and free under
    the reading the caller already took (the serve daemon's slot loop).
    Instants are ints, so a write boxes nothing and a bucket's epoch is an
    integer division; only the reads that return rates and spans produce
    floats.

    {!Delta} is the companion for {e cumulative} instruments: it diffs two
    {!Registry.snapshot}s taken [dt] seconds apart into per-counter rates
    and windowed histogram quantiles (via the bucket counts snapshots now
    carry), which is how `smbm_cli watch` computes live rates client-side
    from nothing but the stats socket. *)

type t

val create : window:float -> ?buckets:int -> unit -> t
(** [create ~window ()] covers the trailing [window] seconds with
    [buckets] cells (default 10; resolution = [window /. buckets], held
    as whole nanoseconds).
    @raise Invalid_argument if [window <= 0], [window] exceeds 10{^9}
    seconds, [buckets < 1] or a cell would be under 1 ns. *)

type counter
type histogram

val counter : t -> string -> counter
(** Register (or retrieve) the window counter [name]. *)

val histogram : t -> ?buckets_per_decade:int -> string -> histogram
(** Register (or retrieve) a log-bucketed window histogram
    ([buckets_per_decade] applies on first registration only). *)

val advance : t -> now:int -> unit
(** Expire cells older than the window as of [now].  Implicit in every
    other operation; exposed for tests.  A clock that runs backwards is
    benign: writes keep landing in the freshest cell. *)

val incr : counter -> now:int -> unit
val add : counter -> now:int -> int -> unit

val total : counter -> now:int -> int
(** Sum over the live window. *)

val rate : counter -> now:int -> float
(** [total /. covered] where [covered] is the window seconds actually
    observed so far (clamped to one cell width at startup so early rates
    are finite, and to the window once it has filled). *)

val span : t -> now:int -> float
(** The covered-seconds denominator used by {!rate}, in seconds. *)

val observe : histogram -> now:int -> float -> unit

val observe_scaled : histogram -> now:int -> int -> float -> unit
(** [observe_scaled h ~now x scale] is [observe h ~now (float_of_int x *.
    scale)] without boxing a float (see
    {!Smbm_prelude.Histogram.add_scaled}). *)

val hist_count : histogram -> now:int -> int
(** Observations in the live window. *)

val quantile : histogram -> now:int -> float -> float
(** Windowed quantile, interpolated over the merged live-cell buckets
    (see {!Smbm_prelude.Histogram.quantile_of_buckets}); 0 when the
    window is empty.
    @raise Invalid_argument for [q] outside [0, 1]. *)

(** Rates from two cumulative {!Registry} snapshots taken [dt] apart. *)
module Delta : sig
  type t

  val diff :
    dt:float ->
    earlier:(string * Registry.sample) list ->
    later:(string * Registry.sample) list ->
    t
  (** Instruments present only in [later] diff against zero; gauges are
      skipped (levels are not diffable); counter and bucket regressions
      (a racy snapshot pair) clamp to zero.
      @raise Invalid_argument if [dt <= 0]. *)

  val names : t -> string list

  val delta : t -> string -> int option
  (** Counter increase over the interval; [None] for non-counters. *)

  val rate : t -> string -> float option
  (** [delta /. dt]. *)

  val hist_count : t -> string -> int option
  (** Histogram observations during the interval. *)

  val quantile : t -> string -> float -> float option
  (** Quantile of the interval's observations, reconstructed from bucket
      count differences. *)
end
