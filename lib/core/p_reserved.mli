(** Sharing with per-port reservation — a hybrid between the paper's two
    extremes (not itself in the paper; an extension point its introduction
    frames: complete sharing utilizes space but hampers fairness, complete
    partitioning is fair but wasteful).

    Each port owns [reserve] guaranteed buffer slots; the remaining
    [B - n * reserve] slots form a shared pool.  An arrival is admitted if
    its queue is below its reservation (always possible: reserved slots are
    never stolen), or if pool space is free; when the pool is exhausted, the
    queue holding the most pool slots — i.e. the longest queue above its
    reservation, counting the arrival virtually — loses its tail to any
    arrival still inside its reservation.

    [reserve = 0] degenerates to LQD; [reserve = B / n] enforces NEST's
    partition shares (plus reclamation of any transiently stolen
    reservation). *)

val make : reserve:int -> Proc_config.t -> Proc_switch.t Policy.t
(** Each branch's victim is one allocation-free pass over the switch's
    per-port length and work columns.
    @raise Invalid_argument if [reserve < 0] or [n * reserve > B]. *)
