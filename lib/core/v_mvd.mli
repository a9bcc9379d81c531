(** Minimal-Value-Drop (MVD).

    Greedy push-out policy maximizing admitted value: when the buffer is
    full and the arriving packet is strictly more valuable than the cheapest
    admitted packet, that cheapest packet is evicted (ties between queues
    holding the minimum value go to the longest queue, then the larger port
    index).  Equivalent in spirit to BPD of the processing model.

    Theorem 10: at least ((m - 1) / 2)-competitive for m = min(k, B).

    [~protect_last:true] is the MVD_1 variant of Section V-C that never
    pushes out the last packet of a queue. *)

val make : ?protect_last:bool -> Value_config.t -> Value_switch.t Policy.t
(** Victim selection is one allocation-free pass over the switch's length
    column, testing each port's occupancy bit at the buffer minimum. *)

val select_victim : protect_last:bool -> Value_switch.t -> int
(** The eviction candidate's port ({!Value_switch.queue_min_value_or} reads
    its minimum), [-1] when no queue is eligible; exposed for tests. *)
