(** Longest-Queue-Drop (LQD), after Aiello et al.

    Greedy push-out policy that ignores processing requirements: when the
    buffer is full, the longest queue — counting the arriving packet as
    virtually added to its destination queue — loses its tail packet.  Ties
    are broken towards the queue with the largest required processing (then
    the largest port index, for determinism).  If the destination queue
    itself is the unique longest, the arrival is dropped.

    2-competitive under homogeneous processing; Theorem 4 shows it is at
    least [sqrt k]-competitive under heterogeneous processing. *)

val make : Proc_config.t -> Proc_switch.t Policy.t
(** Victim selection is one allocation-free pass over the switch's
    per-port length and work columns. *)

val select_victim : Proc_switch.t -> dest:int -> int
(** The queue index LQD would evict from (may equal [dest], meaning drop);
    exposed for tests. *)
