(** Random-Queue-Drop: a seeded baseline that, when the buffer is full,
    pushes out the tail of a uniformly random non-empty queue (the
    destination counts with its virtual packet; choosing it drops the
    arrival).

    Not from the paper — an ablation control: any structured eviction rule
    should beat it, and it separates "push-out at all" from "push out
    *what*" in the Fig. 5-style comparisons. *)

val make : ?seed:int -> Proc_config.t -> Proc_switch.t Policy.t

val make_value : ?seed:int -> Value_config.t -> Value_switch.t Policy.t
(** Value-model variant: evicts the least valuable packet of a random
    non-empty queue; drops arrivals strictly below the buffer minimum. *)
