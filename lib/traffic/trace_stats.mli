(** Descriptive statistics of an arrival trace: per-port composition,
    rate moments and burstiness.  Used to sanity-check synthetic workloads
    against their intended intensity before spending simulation time. *)

open Smbm_core

type t = {
  slots : int;
  arrivals : int;
  per_port : (int * int) list;  (** (port, packets), ports seen only *)
  mean_rate : float;  (** packets per slot *)
  rate_variance : float;  (** unbiased variance of per-slot counts *)
  burstiness : float;
      (** index of dispersion (variance / mean); 1 for Poisson, larger for
          bursty on-off traffic; 0 for an empty trace *)
  peak_rate : int;  (** largest per-slot packet count *)
  busy_slots : int;  (** slots with at least one arrival *)
  total_value : int;
}

val analyze : Trace.Compact.t -> t

val offered_work : Proc_config.t -> Trace.Compact.t -> int
(** Total processing cycles the trace demands under the given port-to-work
    assignment.
    @raise Invalid_argument if a destination has no port. *)

val offered_load : Proc_config.t -> Trace.Compact.t -> float
(** [offered_work / (slots * n * C)] — fraction of the switch's total
    processing capacity the trace demands (can exceed 1). *)

val pp : Format.formatter -> t -> unit
