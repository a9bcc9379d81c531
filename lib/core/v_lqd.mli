(** Longest-Queue-Drop for the value model.

    When the buffer is congested, the longest queue — counting the arriving
    packet as virtually added — drops its last (lowest-value) packet.  Ties
    are broken towards the queue holding the smaller minimum value (the
    cheaper eviction), then the larger port index.  When the destination
    queue itself is longest, the arrival replaces the queue's own minimum
    only if it is strictly more valuable; otherwise it is dropped.

    Theorem 9: at least (cube root of k)-competitive. *)

val make : Value_config.t -> Value_switch.t Policy.t
(** Victim selection is one allocation-free pass over the switch's
    per-port length column; a port's minimum is read only on a length
    tie. *)

val select_victim : Value_switch.t -> dest:int -> int
(** Exposed for tests. *)
