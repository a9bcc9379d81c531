(** Workload presets for the paper's simulation study (Section V-A).

    Traffic is the interleaving of [sources] independent MMPP on-off
    processes.  The paper does not print its MMPP parameters; here the
    burstiness knobs are explicit and the per-source emission rate is derived
    from a normalized [load]:

    - processing model: [load] = offered work per slot / (n * C), where
      offered work counts each arrival at its port's required work;
    - value model: [load] = offered packets per slot / (n * C).

    [load > 1] congests the switch in expectation; bursty on-periods congest
    it locally even at lower loads.  Every preset raises [Invalid_argument]
    if [load] is negative or not finite, or the MMPP parameters are out of
    range (see {!Source_bank.create}). *)

type mmpp_params = {
  sources : int;  (** number of interleaved sources (paper: 500) *)
  p_on_to_off : float;  (** per-slot on->off probability *)
  p_off_to_on : float;  (** per-slot off->on probability *)
}

val default_mmpp : mmpp_params
(** 500 sources, mean on-period 10 slots, mean off-period 30 slots
    (duty cycle 0.25). *)

val duty_cycle : mmpp_params -> float

val workload :
  mmpp:mmpp_params ->
  label:Label.t ->
  emission:Source_bank.emission ->
  seed:int ->
  Workload.t
(** A {!Source_bank} of [mmpp.sources] sources with the given on-state
    [emission] (per source) and [label], seeded from [seed].  Every preset
    below is one of these.
    @raise Invalid_argument as {!Source_bank.create}. *)

val proc_workload :
  ?mmpp:mmpp_params ->
  ?reference:Smbm_core.Proc_config.t ->
  config:Smbm_core.Proc_config.t ->
  load:float ->
  seed:int ->
  unit ->
  Workload.t
(** Uniform destination ports; per-source rate derived from [load] against
    [reference]'s capacity (default: [config] itself).  Passing a fixed
    [reference] across a sweep holds the absolute traffic intensity constant
    while k, B or C vary, as in the paper's Fig. 5. *)

val value_uniform_workload :
  ?mmpp:mmpp_params ->
  ?reference:Smbm_core.Value_config.t ->
  config:Smbm_core.Value_config.t ->
  load:float ->
  seed:int ->
  unit ->
  Workload.t
(** Destination and value independently uniform (Fig. 5 panels 4-6). *)

val value_port_workload :
  ?mmpp:mmpp_params ->
  ?reference:Smbm_core.Value_config.t ->
  config:Smbm_core.Value_config.t ->
  load:float ->
  seed:int ->
  unit ->
  Workload.t
(** Value = port label + 1 (Fig. 5 panels 7-9).  Requires n <= k. *)

val value_port_flood_workload :
  ?mmpp:mmpp_params ->
  ?skew:float ->
  config:Smbm_core.Value_config.t ->
  load:float ->
  seed:int ->
  unit ->
  Workload.t
(** Value = port label + 1 with traffic skewed towards low-value ports
    (weight of port [i] proportional to [(n - i) ^ skew], default skew 2) —
    cheap traffic floods the switch.  This is the regime the paper points at
    with "[MRD's] advantage grows for distributions that prioritize certain
    values at specific queues".  Requires n <= k. *)

val proc_heavy_tail_workload :
  ?mmpp:mmpp_params ->
  ?alpha:float ->
  ?max_batch:int ->
  ?reference:Smbm_core.Proc_config.t ->
  config:Smbm_core.Proc_config.t ->
  load:float ->
  seed:int ->
  unit ->
  Workload.t
(** Like {!proc_workload} but with heavy-tailed (Pareto, tail index
    [alpha], capped at [max_batch]) per-slot batch sizes instead of Poisson
    emissions — self-similar-looking traffic that stresses buffer sharing
    far harder at the same mean rate. *)

val port_values : Smbm_core.Value_config.t -> int array
(** The per-port value assignment of {!value_port_workload}:
    [port_values cfg .(i) = i + 1]. *)
