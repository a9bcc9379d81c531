(** Multiset over the bounded integer universe [1..k], stored as counts.

    This is the buffer representation of the single-priority-queue reference
    algorithm used as the paper's stand-in for OPT: packets there are
    exchangeable given their key (residual work, or value), so per-key counts
    suffice and every operation is O(k). *)

type t

val create : k:int -> t
(** Empty multiset over keys [1..k].  [k] must be positive. *)

val k : t -> int

val size : t -> int
(** Total number of elements. *)

val is_empty : t -> bool

val count : t -> int -> int
(** [count t key] for [key] in [1..k]. *)

val add : t -> int -> unit
(** @raise Invalid_argument if the key is outside [1..k]. *)

val remove : t -> int -> unit
(** Remove one occurrence. @raise Invalid_argument if the key is absent. *)

val min_key : t -> int
(** Smallest key present; 0 (outside the universe) when empty. *)

val max_key : t -> int
(** Largest key present; 0 when empty. *)

val sum : t -> int
(** Sum of all elements (keys weighted by multiplicity). *)

val fold : ('acc -> key:int -> count:int -> 'acc) -> 'acc -> t -> 'acc
(** Fold over keys with non-zero count, in increasing key order. *)

val clear : t -> unit

val remove_largest : t -> budget:int -> int
(** [remove_largest t ~budget] removes the [min budget (size t)] largest
    elements outright and returns the sum of their keys.  This is the value
    model's transmission step (largest values first, unit work). *)

val serve_srpt : t -> budget:int -> int
(** [serve_srpt t ~budget] spends up to [budget] work units on the smallest
    elements, shortest-remaining-first and run-to-completion: the smallest
    element is worked on (and removed at key 0) before any budget goes to
    the next one.  Returns the number of completed elements.  Several
    units may go into one element within a single call — this upper-bounds
    any switch schedule whose queues apply multiple cycles per slot
    (speedup [C > 1]). *)
