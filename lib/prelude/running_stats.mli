(** Streaming first- and second-moment statistics (Welford's algorithm).

    Used by the simulator to accumulate occupancy and latency statistics
    without storing samples. *)

type t

val create : unit -> t

val clear : t -> unit

val add : t -> float -> unit

val add_int : t -> int -> unit
(** [add_int t x] is [add t (float_of_int x)], bit for bit, without boxing
    the converted sample: the per-packet and per-slot form. *)

val add_scaled : t -> int -> float -> unit
(** [add_scaled t x scale] is [add t (float_of_int x *. scale)], bit for
    bit, converting inside the call so nothing is boxed (see
    {!Histogram.add_scaled}). *)

val count : t -> int

val mean : t -> float
(** 0 when no samples have been added. *)

val variance : t -> float
(** Unbiased sample variance; 0 for fewer than two samples. *)

val stddev : t -> float

val min : t -> float
(** @raise Invalid_argument when no samples have been added. *)

val max : t -> float
(** @raise Invalid_argument when no samples have been added. *)

val sum : t -> float

val merge : t -> t -> t
(** Statistics of the union of the two sample streams. *)

val pp : Format.formatter -> t -> unit
