(** Longest-Work-Drop (LWD) — the paper's main contribution.

    Greedy push-out policy accounting for processing requirements through
    total per-queue work: when the buffer is full, the queue with the most
    total remaining work — counting the arriving packet's work as virtually
    added to its destination queue — loses its tail packet.  Ties are broken
    towards the queue with the largest per-packet work (then the largest
    port index).  If the destination queue itself wins the argmax, the
    arrival is dropped.

    Theorem 7: LWD is at most 2-competitive; it is at least
    sqrt(2)-competitive (it coincides with LQD under uniform work) and at
    least [(4/3 - 6/B)]-competitive in the contiguous configuration
    (Theorem 6).

    Two ablation knobs (both off by default, i.e. the paper's LWD):
    [~protect_last:true] never pushes out a queue's only packet (the BPD_1 /
    MVD_1 treatment applied to LWD); [~tie] changes the tie-breaking rule
    among equally heavy queues. *)

type tie =
  | Largest_work  (** the paper's rule *)
  | Smallest_work
  | Longest_queue

val make :
  ?protect_last:bool -> ?tie:tie -> Proc_config.t -> Proc_switch.t Policy.t
(** The policy is named ["LWD"], ["LWD1"] when protecting last packets, and
    ["LWD/tie=..."] for non-default tie-breaking.  Victim selection is one
    allocation-free pass over the switch's per-port work and length
    columns. *)

val select_victim :
  ?protect_last:bool -> ?tie:tie -> Proc_switch.t -> dest:int -> int
(** The queue LWD would evict from; [dest] means drop (the destination is
    always eligible, so some queue always wins).  Exposed for tests. *)
