(** A switch model with its configuration: the one place that knows what
    differs between the paper's settings.  Sweeps, the CLI verbs, the MMPP
    bank and the serve daemon ask it instead of matching on the model.

    - [Proc]: heterogeneous processing (Section III); with the config's
      [max_value > 1], the combined work + value model.
    - [Value_uniform]: heterogeneous values, port and value independently
      uniform (Section IV; the middle row of Fig. 5).
    - [Value_port]: value = port label + 1 (the bottom row of Fig. 5). *)

open Smbm_core

type t =
  | Proc of Proc_config.t
  | Value_uniform of Value_config.t
  | Value_port of Value_config.t

val name : t -> string
(** ["proc"], ["value-uniform"] or ["value-port"]. *)

val objective : t -> [ `Packets | `Value ]
(** Packets on a unit-priced processing config, value otherwise. *)

val ports : t -> int

val max_trace_value : t -> int
(** The largest value a recorded arrival may carry: the config's
    [max_value], or [max_int] where the engine stores every packet at 1. *)

val with_buffer : t -> int -> t
(** The same model at buffer size [B]: threshold policies capture [B] when
    built, so a live resize looks them up again against this. *)

val workload :
  ?mmpp:Smbm_traffic.Scenario.mmpp_params ->
  ?reference:t ->
  t ->
  load:float ->
  seed:int ->
  Smbm_traffic.Workload.t
(** The model's {!Smbm_traffic.Scenario} preset, its rate derived from
    [load] against [reference]'s capacity (default: the model itself).
    @raise Invalid_argument if [reference] is another model, or as the
    preset. *)

val offered_load : t -> Smbm_traffic.Trace.Compact.t -> float
(** Offered work (processing) or arrivals (value) over the capacity
    [slots * n * C], as {!Smbm_traffic.Trace_stats.offered_load}. *)

val instances :
  ?events:Smbm_obs.Flight.t -> ?distributions:bool -> t -> Instance.t list
(** The OPT reference, then the model's paper policies in Fig. 5 order.
    [distributions] (default [true]) is handed to every instance: at
    [false] none records latency, port or occupancy distributions, only
    counters ({!Engine.S.create}, {!Opt_ref.proc_instance}). *)

val instance : ?events:Smbm_obs.Flight.t -> t -> string -> Instance.t option
(** One policy by case-insensitive name, run on the model's engine. *)

val proc_policy : t -> string -> Proc_switch.t Policy.t option
(** {!Smbm_core.Policies.proc_find} on [Proc]; [None] otherwise. *)

val value_policy : t -> string -> Value_switch.t Policy.t option
(** {!Smbm_core.Policies.value_find} on a value model, with NHST only for
    [Value_port]; [None] on [Proc]. *)
