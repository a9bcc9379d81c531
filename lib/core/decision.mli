(** Admission decision returned by a buffer-management policy for one
    arriving packet.

    An immediate integer: a decision is returned once per arrival, so it
    must not be a heap block.  A push-out is its victim's queue index
    (>= 0); accept and drop are distinct negative constants. *)

type t = private int

val accept : t
(** Admit into the destination queue; requires free buffer space. *)

val drop : t
(** Reject the arriving packet. *)

val push_out : int -> t
(** [push_out victim]: evict the tail packet of queue [victim], then admit;
    only meaningful when the buffer is full.
    @raise Invalid_argument when [victim < 0]. *)

val is_accept : t -> bool
val is_drop : t -> bool
val is_push_out : t -> bool

val victim : t -> int
(** The evicted queue of a push-out.
    @raise Invalid_argument on accept or drop. *)

val pp : Format.formatter -> t -> unit
(** [accept], [drop], or [push-out(Q<victim>)]. *)

val equal : t -> t -> bool
