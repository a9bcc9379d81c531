(** Greedy non-push-out baseline for the value model: accept whenever there
    is free buffer space.  At least k-competitive (fill the buffer with 1s,
    then send in the ks) — the paper's reason to consider only push-out
    policies in the value model. *)

val make : Value_config.t -> Value_switch.t Policy.t
