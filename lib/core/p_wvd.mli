(** Work-per-Value-Drop for the combined work + value model: evict the
    tail of the queue maximizing [W_j / V_j] (most work held per unit of
    value), the arrival's own queue counted virtually.  Reduces to LWD
    under uniform values.  Under extreme congestion it prunes the expensive
    ports until the lightest queue monopolizes the buffer and throughput
    collapses (see [smbm_cli reproduce hybrid]) — BPD's pathology taken to
    the limit, a negative result worth keeping. *)

val make : Proc_config.t -> Proc_switch.t Policy.t
