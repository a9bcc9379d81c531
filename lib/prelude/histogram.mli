(** Log-bucketed histogram for non-negative samples (latencies, queue
    depths).  Buckets grow geometrically, so the histogram spans
    microsecond-to-hour-like ranges with bounded memory and small relative
    error; quantiles are interpolated within buckets. *)

type t

val create : ?max_value:float -> ?buckets_per_decade:int -> unit -> t
(** [create ()] covers [0, max_value] (default 1e9) with
    [buckets_per_decade] buckets per power of ten (default 10; relative
    error ~ 26%/buckets_per_decade). *)

val add : t -> float -> unit
(** Negative samples raise [Invalid_argument]; samples above the cap are
    clamped into the last bucket. *)

val add_int : t -> int -> unit
(** [add_int t x] records exactly what [add t (float_of_int x)] records —
    same bucket, count, sum and maximum — without boxing a float: the
    per-packet and per-slot form for samples counted in slots.  A sample
    below 1 024 reads its bucket from a table instead of taking a
    [log10].
    @raise Invalid_argument on a negative sample. *)

val add_scaled : t -> int -> float -> unit
(** [add_scaled t x scale] records exactly what
    [add t (float_of_int x *. scale)] records, converting inside the call:
    the allocation-free form for an integer reading kept in another unit
    (nanoseconds recorded in microseconds: [add_scaled t ns 1e-3]).
    @raise Invalid_argument on a negative product. *)

val count : t -> int

val quantile : t -> float -> float
(** [quantile t q] for [q] in [0, 1]; 0 when empty, and exactly the sample
    when only one has been added (every quantile of a single observation is
    that observation — no in-bucket interpolation below it).
    @raise Invalid_argument for [q] outside [0, 1]. *)

val mean : t -> float

val max_seen : t -> float
(** Largest sample added; 0 when empty. *)

val buckets_per_decade : t -> int

val buckets : t -> (int * int) list
(** Non-empty buckets as [(index, count)], sorted by index.  Together with
    {!buckets_per_decade} this is the histogram's full shape — two
    cumulative snapshots of the same instrument can be subtracted bucket by
    bucket to recover the distribution of a time window. *)

val bucket_bounds : buckets_per_decade:int -> int -> float * float
(** [(lower, upper)] edges of bucket [index] under the given bucketing
    (bucket 0 is [0, 1)).
    @raise Invalid_argument on a negative index or bucketing < 1. *)

val quantile_of_buckets :
  buckets_per_decade:int -> (int * int) list -> float -> float
(** {!quantile}'s interpolation over externally held [(index, count)]
    buckets (sorted by index; non-positive counts ignored) — for windowed
    quantiles reconstructed from snapshot differences, where no [max_seen]
    is available to clamp against.
    @raise Invalid_argument for [q] outside [0, 1]. *)

val merge : t -> t -> t
(** Histogram of the union; both operands must share the same bucketing.
    @raise Invalid_argument otherwise. *)

val clear : t -> unit

val pp : Format.formatter -> t -> unit
(** One-line summary: count, mean, p50/p90/p99, max. *)
