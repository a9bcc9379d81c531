(** Maximal-Ratio-Drop (MRD) — the paper's candidate for constant
    competitiveness in the value model.

    Balances LQD's port-count view against MVD's value view: when the buffer
    is full and the arriving packet is at least as valuable as the cheapest
    admitted packet, the queue maximizing [|Q_j| / a_j] (with [a_j] the
    queue's average value, i.e. maximizing [|Q_j|^2 / total value]) evicts
    its least valuable packet.  Ties go to the queue containing the smaller
    minimum value, then the larger port index.  The paper's drop clause is
    "minimum strictly bigger than the arrival": pushing out on equality is
    exactly what makes MRD emulate LQD under unit values.

    MRD coincides with LQD under unit values (so it is at least
    sqrt(2)-competitive) and is at least 4/3-competitive when each packet's
    value equals its output port label (Theorem 11).  Whether it achieves a
    constant ratio in general is the paper's open conjecture. *)

val make : ?protect_last:bool -> Value_config.t -> Value_switch.t Policy.t
(** [~protect_last:true] is the MRD_1 ablation that never pushes out a
    queue's only packet (analogous to the paper's BPD_1 and MVD_1).  Victim
    selection is one allocation-free pass over the switch's per-port length
    and value-sum columns; a port's minimum is read only on a ratio tie. *)

val select_victim : ?protect_last:bool -> Value_switch.t -> int
(** The ratio-maximal eligible queue, [-1] when none is eligible; exposed
    for tests. *)
