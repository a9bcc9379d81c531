(** Periodic sampling of a running instance into plottable series: buffer
    occupancy, cumulative throughput rate, drops.  Wraps an {!Instance} so
    the experiment loop needs no changes. *)

type t

val attach : every:int -> Instance.t -> Instance.t * t
(** [attach ~every inst] returns an instance behaving exactly like [inst]
    that additionally records a sample every [every] slots, and the handle
    to read the series back.  [every] must be positive. *)

val samples : t -> int

val occupancy : t -> Smbm_report.Series.t
(** (slot, buffer occupancy) at each sample point. *)

val throughput : t -> Smbm_report.Series.t
(** (slot, packets transmitted per slot since the previous sample). *)

val drop_rate : t -> Smbm_report.Series.t
(** (slot, dropped / arrivals since the previous sample; 0 when idle). *)

val table : t -> string list * string list list
(** Headers [slot, occupancy, throughput, drop_rate] and one row per
    sample, oldest first. *)
