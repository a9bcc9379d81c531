(** Tail-MVD for the combined work + value model: evict the cheapest
    {e tail} packet in the buffer if it is strictly cheaper than the
    arrival.  FIFO order makes only tails evictable, unlike the sorted
    queues of Section IV's MVD. *)

val make : Proc_config.t -> Proc_switch.t Policy.t
