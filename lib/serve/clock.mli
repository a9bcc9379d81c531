(** The daemon's one stage clock: integer nanoseconds from the monotonic
    clock ([CLOCK_MONOTONIC] through bechamel's [Monotonic_clock]).

    Every slot-stage timer, the ring's blocked-since stamp, the ingest
    deadline and pacing, and the telemetry publication instants (the
    window's uptimes) read this clock.
    It never steps back, so a stage sample is never negative, and it
    returns an immediate [int], so a reading costs no allocation however
    far it travels. *)

val now_ns : unit -> int
(** Nanoseconds since an arbitrary fixed origin; successive reads on one
    domain never decrease. *)

val seconds : int -> float
(** [seconds ns] is [ns] in seconds. *)
