(** Equal static thresholds (NEST) for the value model: accept an arrival
    for port [i] iff [|Q_i| < B / n].  Complete partitioning, value-blind. *)

val make : Value_config.t -> Value_switch.t Policy.t
