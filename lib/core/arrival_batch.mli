(** A reusable struct-of-arrays batch of one slot's arrivals.

    The per-slot hot path of the evaluation pipeline used to allocate a fresh
    [Arrival.t list] every slot (plus intermediate lists in the workload
    combinators).  An [Arrival_batch.t] replaces those lists with flat [int]
    arrays ([dest]/[value]/[work]) plus a length, growing on demand and
    reused across slots, so a steady-state slot loop allocates nothing.

    Iteration order is arrival order: index 0 is the first packet offered to
    a switch.  The [work] column is an annotation slot for consumers that
    precompute per-packet cost (the processing model derives work from the
    destination port); workloads leave it 0. *)

type t

val create : ?capacity:int -> unit -> t
(** Empty batch; [capacity] (default 64) is only the initial allocation. *)

val length : t -> int
val is_empty : t -> bool

val clear : t -> unit
(** Reset the length to 0; keeps the arrays (no allocation). *)

val push : ?work:int -> t -> dest:int -> value:int -> unit
(** Append one arrival; amortized O(1), allocates only when growing. *)

val push_arrival : t -> Arrival.t -> unit

val dest : t -> int -> int
val value : t -> int -> int
val work : t -> int -> int
(** Indexed access.  @raise Invalid_argument out of bounds. *)

val set_work : t -> int -> int -> unit
(** [set_work b i w] annotates arrival [i] with per-packet work [w]. *)

val set : t -> int -> dest:int -> value:int -> unit
(** Overwrite arrival [i] in place (in-place relabelling). *)

val iter : t -> f:(dest:int -> value:int -> unit) -> unit
(** In arrival order; no allocation. *)

val iteri : t -> f:(int -> dest:int -> value:int -> unit) -> unit

val push_rev : t -> dest:int array -> value:int array -> len:int -> unit
(** Append the first [len] pairs of [dest]/[value] in reverse: pair
    [len - 1] first, pair 0 last.  Generators that draw a slot in one order
    and owe the caller the historical prepend-accumulation order (the
    reverse) copy their draws out with this.
    @raise Invalid_argument if [len] is negative or exceeds either array. *)

val append : t -> t -> unit
(** [append t src] appends [src]'s arrivals to [t], in order. *)

val to_list : t -> Arrival.t list
(** Fresh list in iteration order (the compatibility shim's conversion). *)

val of_list : Arrival.t list -> t
