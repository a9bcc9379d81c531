(** Off-heap int column: a [Bigarray.Array1] of native ints, C layout.

    Backs the switch slot slabs and {e compact trace} payloads: the data
    lives outside the OCaml heap (never scanned by the GC) and [sub] hands
    out zero-copy windows over one shared allocation, so read-only columns
    can be shared across domains without copying.  The [unsafe_*] accessors
    skip the bounds check — callers keep indices in range by their own
    invariants (the switches prove theirs in [check_invariants]). *)

type t = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

val create : ?fill:int -> int -> t
(** [create ?fill len]: a column of [len] slots, all [fill] (default 0).
    @raise Invalid_argument on a negative length. *)

val init : int -> (int -> int) -> t
val length : t -> int

val get : t -> int -> int
val set : t -> int -> int -> unit

external unsafe_get : t -> int -> int = "%caml_ba_unsafe_ref_1"
external unsafe_set : t -> int -> int -> unit = "%caml_ba_unsafe_set_1"
(** Bigarray primitives, not functions: [t]'s element kind and layout are
    concrete, so every call site compiles to one load or store, with no
    call, in every build profile (a function here would cost a call per
    slab access wherever cross-unit inlining is off). *)

val fill : t -> int -> unit

val blit :
  src:t -> src_pos:int -> dst:t -> dst_pos:int -> len:int -> unit

val grow : t -> len:int -> fill:int -> t
(** A fresh column of [len] slots carrying the old contents, tail [fill]ed.
    @raise Invalid_argument if [len] is smaller than the current length. *)

val sub : t -> pos:int -> len:int -> t
(** Zero-copy window sharing the backing storage. *)

val of_array : int array -> t
val to_array : t -> int array
val equal : t -> t -> bool
