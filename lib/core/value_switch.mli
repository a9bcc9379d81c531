(** Shared-memory switch state for the heterogeneous-value model.

    Holds [n] priority queues (largest value first) drawing on one buffer of
    [B] packet slots.  Transmission sends up to [speedup] packets per
    non-empty queue per slot.  Mechanics only; admission decisions come from
    a [Value_switch.t] {!Policy}.

    The state is a struct-of-arrays slab of unboxed int columns with
    intrusive per-(port, value) bucket lists and per-port occupancy bitsets
    (63 value levels per word), so per-port minima/maxima cost O(k/63), as
    does the buffer minimum off a buffer-wide per-value count.
    Within a value bucket, push-out takes the youngest packet and
    transmission the oldest.  A warmed switch runs the whole
    accept/push-out/transmit cycle without allocating; tests and analyses
    read queue contents through {!iter_port}. *)

type t

type view = {
  view_wpp : int;  (** bitset words per port *)
  view_qlen : int array;  (** live per-port packet counts *)
  view_qsum : int array;  (** live per-port value sums *)
  view_occ : int array;  (** live per-port occupancy bitsets *)
}
(** Read-only aliases of the switch's per-port aggregate state.  The push-out
    policies select their victims in one pass over these arrays and read a
    port's minimum through {!view_min_value_or} only where a tie needs it.
    The arrays are the switch's own live state: never write through them. *)

val view_min_value_or : view -> int -> default:int -> int
(** Smallest value queued at the port, [default] when empty — the same
    bitset scan the switch itself runs, exposed for the policies' tie
    keys. *)

val low_bit_index : int -> int
(** Index (0..62) of the lowest set bit of a non-zero word — the
    branch-free scan behind every minimum read.  Bit 62 is the native
    int's sign bit and a valid occupancy level. *)

val high_bit_index : int -> int
(** Index (0..62) of the highest set bit of a non-zero word — the scan
    behind transmission's most-valuable-first read. *)

val create : Value_config.t -> t

val config : t -> Value_config.t
(** The creation-time configuration.  Its [buffer] field is the {e initial}
    B; after {!set_buffer} the live bound is {!buffer}. *)

val n : t -> int
val k : t -> int
val buffer : t -> int
val speedup : t -> int

val set_buffer : t -> int -> unit
(** Live-resize the shared buffer bound B; see {!Proc_switch.set_buffer}
    for the contract (no buffered packet is ever dropped).  A grow extends
    the slot slab; the slab never shrinks.
    @raise Invalid_argument if the new bound is [< 1] or smaller than the
    current occupancy. *)

val now : t -> int
val advance_slot : t -> unit

val occupancy : t -> int
val free_space : t -> int
val is_full : t -> bool

val queue_length : t -> int -> int

val queue_total_value : t -> int -> int
(** Sum of queued packet values at port [i].  O(1). *)

val queue_min_value_or : t -> int -> default:int -> int
(** Smallest value queued at port [i]; [default] when the queue is empty.
    Sits on the admission hot path of the value policies. *)

val min_value_or : t -> default:int -> int
(** Smallest value currently admitted anywhere in the buffer; [default]
    when the buffer is empty.  O(k/63): the lowest set bit of the bitset
    over a buffer-wide per-value count.  The MRD and RAND drop gate. *)

val view : t -> view
(** The live per-port aggregate state: one record, built at {!create}, so
    reading it allocates nothing. *)

val accept : t -> dest:int -> value:int -> unit
(** @raise Invalid_argument if the buffer is full or the value is outside
    [1 .. k]. *)

val push_out : t -> victim:int -> int
(** Evict the least valuable packet of queue [victim] (the youngest among
    equal values) and return its value — what the engines' loss accounting
    needs.
    @raise Invalid_argument if that queue is empty. *)

val transmit_phase :
  t -> on_transmit:(dest:int -> value:int -> arrival:int -> unit) -> int
(** Every non-empty queue transmits up to [speedup] packets, most valuable
    first (the oldest among equal values), ports in index order.  Returns
    the number of packets transmitted.  Exception-safe: each packet is fully
    accounted before [on_transmit] sees it, so a raising hook propagates out
    of a consistent switch. *)

val iter_port : t -> int -> (id:int -> value:int -> arrival:int -> unit) -> unit
(** Read-only walk of queue [i] in transmission order: values descending,
    oldest first among equal values.  The callback must not mutate the
    switch. *)

val flush : t -> int
(** Discard all buffered packets; returns how many were discarded.
    @raise Invalid_argument if the occupancy count disagrees with the queue
    contents — state corruption that must not be ignored (a real check, not
    an [assert] stripped under [-noassert]). *)

val check_invariants : t -> unit
