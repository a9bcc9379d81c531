(** Growable circular buffer of unboxed ints.

    A deque restricted to [int] elements: FIFO via [push_back]/[pop_front],
    tail eviction via [pop_back], O(1) random access from the front.
    Capacity is a power of two (position arithmetic is a mask) that doubles
    on demand and never shrinks, so a warmed ring runs allocation-free —
    the property the processing switch relies on for its per-port
    queues. *)

type t

val create : ?capacity:int -> unit -> t
(** Empty ring; [capacity] (default 8) is rounded up to a power of two. *)

val length : t -> int
val is_empty : t -> bool

val capacity : t -> int
(** Current physical capacity (for tests and memory accounting). *)

val push_back : t -> int -> unit
(** Append at the back, doubling the buffer if full. *)

val peek_front : t -> int
(** Front element without removing it.
    @raise Invalid_argument when empty. *)

val pop_front : t -> int
(** Remove and return the front (oldest) element.
    @raise Invalid_argument when empty. *)

val pop_back : t -> int
(** Remove and return the back (youngest) element.
    @raise Invalid_argument when empty. *)

val get : t -> int -> int
(** [get t i] is the [i]-th element counted from the front.
    @raise Invalid_argument when out of range. *)

val clear : t -> unit

val iter : (int -> unit) -> t -> unit
(** Front to back. *)
