(** Densest-Packet-Keep for the combined work + value model: evict the
    evictable (tail) packet with the smallest value per processing cycle
    [v / w], and only for an arrival of strictly higher density.  Behaves
    like MVD skewed by work; competitive at extreme congestion, a little
    behind LWD at moderate congestion. *)

val make : Proc_config.t -> Proc_switch.t Policy.t
