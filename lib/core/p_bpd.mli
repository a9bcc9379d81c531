(** Biggest-Packet-Drop (BPD).

    Greedy push-out policy that keeps the packets with the smallest
    processing requirements: when the buffer is full, the non-empty queue
    with the largest per-packet work loses its tail, provided the arriving
    packet's port does not come after the victim's in the work-sorted port
    order (the paper's "i <= j" with ports sorted by required work; here
    realised as an explicit comparison on (work, port index)).

    Theorem 5: at least [(ln k + gamma)]-competitive.

    [~protect_last:true] gives the BPD_1 variant of Section V-B that never
    pushes out the last packet of a queue (victims must hold at least two
    packets), avoiding the artificial deactivation of output ports. *)

val make : ?protect_last:bool -> Proc_config.t -> Proc_switch.t Policy.t
(** Victim selection is one allocation-free pass over the switch's
    per-port length and work columns. *)

val select_victim : protect_last:bool -> Proc_switch.t -> int
(** The queue BPD would evict from: the non-empty (length >= 2 when
    protecting last packets) queue with maximal work, ties towards the
    longer queue, then the larger index; [-1] when no queue is eligible.
    Exposed for tests. *)
