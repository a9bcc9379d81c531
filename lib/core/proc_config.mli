(** Switch configuration for the heterogeneous-processing model.

    An [l x n] shared-memory switch is described by its per-port processing
    requirements (the "configuration" of Section III-B: the assignment of
    required work to output ports), the shared buffer size [B], and the
    per-queue speedup [C] (number of cores serving each queue, Section V-A).
    The number of input ports [l] plays no role in buffer management and is
    not modelled.

    [max_value] is the combined work + value model (the paper's future
    work): with [max_value > 1] each unit-sized packet also carries a value
    in [1 .. max_value], queues stay FIFO, and the objective is transmitted
    value.  At the default [max_value = 1] every packet is worth 1, which is
    exactly the processing model. *)

type t = private {
  works : int array;  (** [works.(i)] is the required work of port [i] *)
  buffer : int;  (** shared buffer size [B], in packets *)
  speedup : int;  (** processing cycles per queue per slot [C] *)
  max_value : int;  (** largest packet value; 1 = the processing model *)
}

val make :
  works:int array -> buffer:int -> ?speedup:int -> ?max_value:int -> unit -> t
(** @raise Invalid_argument unless all works are >= 1, [buffer >= 1],
    [speedup >= 1] and [max_value >= 1] (default 1).  The paper additionally
    assumes [B >= n]; this is not enforced so that corner cases remain
    testable. *)

val contiguous :
  k:int -> buffer:int -> ?speedup:int -> ?max_value:int -> unit -> t
(** The paper's contiguous configuration: [k] ports with works [1, 2, .., k].
    All lower-bound constructions of Section III-B use this configuration. *)

val uniform : n:int -> work:int -> buffer:int -> ?speedup:int -> unit -> t
(** [n] ports that all require [work] cycles (the classical shared-memory
    switch of Aiello et al. when [work = 1]). *)

val bimodal :
  n:int -> cheap:int -> expensive:int -> ?expensive_ports:int ->
  buffer:int -> ?speedup:int -> unit -> t
(** A two-class configuration: the last [expensive_ports] ports (default
    [n / 4], at least 1) require [expensive] cycles, the rest [cheap] — the
    firewall-vs-IPsec shape of the paper's Fig. 1 motivation.
    @raise Invalid_argument unless [1 <= expensive_ports <= n]. *)

val geometric : n:int -> ?base:int -> buffer:int -> ?speedup:int -> unit -> t
(** Works [base^0, base^1, .., base^(n-1)] (default base 2): a heavy-tailed
    spread of processing requirements. *)

val n : t -> int
(** Number of output ports. *)

val k : t -> int
(** Maximum required work over all ports. *)

val work : t -> int -> int
(** [work t i] is the required work of port [i]. *)

val unit_priced : t -> bool
(** [max_value = 1]: the processing model, in which every packet is worth 1
    whatever value its arrival carries.  The engine then stores value 1,
    the exact optimum counts packets, and any recorded value replays.  The
    one home of this rule. *)

val inverse_work_sum : t -> float
(** [Z = sum_i 1 / w_i], the normalizer of the NHST thresholds. *)

val pp : Format.formatter -> t -> unit
(** Prints [max_value] only when it is above 1. *)
