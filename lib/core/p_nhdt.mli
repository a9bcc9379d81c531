(** Non-Push-Out-Harmonic-Dynamic-Threshold (NHDT), after Kesselman &
    Mansour.

    On an arrival for port [i], let [j_1 .. j_m] be the queues with
    [|Q_j| >= |Q_i|] (port [i] among them); accept iff
    [sum_s |Q_{j_s}| < (B / H_n) * H_m].  The idea: for each [m], the [m]
    fullest queues together hold at most [(B / H_n) * H_m] packets.

    O(log n)-competitive under homogeneous processing; Theorem 3 shows it is
    at least [~ 1/2 sqrt(k ln k)]-competitive under heterogeneous processing.

    The harmonic normalizer uses [H_n] over the number of ports, which equals
    the paper's [H_k] in its contiguous configuration. *)

val make : Proc_config.t -> Proc_switch.t Policy.t

val admits :
  buffer:int -> lengths:int array -> dest:int -> bool
(** Pure form of the admission predicate, exposed for tests: would NHDT
    (with normalizer [H_(Array.length lengths)]) accept an arrival for port
    [dest] given current queue [lengths]? Ignores buffer fullness. *)
