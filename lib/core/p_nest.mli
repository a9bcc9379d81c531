(** Non-Push-Out-Equal-Static-Threshold (NEST).

    Accept an arrival for port [i] iff [|Q_i| < B / n] — complete
    partitioning of the buffer into equal shares.  Theorem 2:
    (n + o(n))-competitive. *)

val make : Proc_config.t -> Proc_switch.t Policy.t
