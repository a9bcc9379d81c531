(** A reusable struct-of-arrays batch of one slot's arrivals.

    The one form in which a slot's arrivals move through the program: flat
    [int] arrays ([dest]/[value]) plus a length, growing on demand and
    reused across slots, so a steady-state slot loop allocates nothing.

    Iteration order is arrival order: index 0 is the first packet offered to
    a switch. *)

type t

val create : ?capacity:int -> unit -> t
(** Empty batch; [capacity] (default 64) is only the initial allocation. *)

val length : t -> int

val clear : t -> unit
(** Reset the length to 0; keeps the arrays (no allocation). *)

val push : t -> dest:int -> value:int -> unit
(** Append one arrival; amortized O(1), allocates only when growing. *)

val push_arrival : t -> Arrival.t -> unit

val dest : t -> int -> int
val value : t -> int -> int
(** Indexed access.  @raise Invalid_argument out of bounds. *)

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
