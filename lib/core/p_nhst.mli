(** Non-Push-Out-Harmonic-Static-Threshold (NHST).

    Accept an arrival for port [i] iff [|Q_i| < B / (w_i * Z)] where
    [Z = sum_j 1/w_j] — static per-queue thresholds inversely proportional to
    required processing.  Theorem 1: (kZ + o(kZ))-competitive. *)

val make : Proc_config.t -> Proc_switch.t Policy.t

val threshold : Proc_config.t -> int -> float
(** The (real-valued) admission threshold of port [i]; exposed for tests. *)
