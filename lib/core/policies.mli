(** Registry of the paper's policies, for CLIs, benches and sweeps. *)

val proc : Proc_config.t -> Proc_switch.t Policy.t list
(** All processing-model policies of Section III and V-B, in the paper's
    order: NHST, NEST, NHDT, LQD, BPD, BPD1, LWD. *)

val proc_extended : Proc_config.t -> Proc_switch.t Policy.t list
(** The paper's set plus ablation variants: LWD1 (never empties a queue),
    LWD with alternative tie-breaking, sharing-with-reservation at half the
    partition share, and a random-eviction baseline. *)

val hybrid : Proc_config.t -> Proc_switch.t Policy.t list
(** Policies for the combined work + value model (a processing
    configuration with [max_value > 1]): Greedy (accept while there is
    space), and the value-blind NEST, LQD and LWD of Section III, then the
    value-aware tail-MVD ({!P_mvd}), WVD ({!P_wvd}) and DPK ({!P_dpk}). *)

val proc_find : Proc_config.t -> string -> Proc_switch.t Policy.t option
(** Case-insensitive lookup by name in {!proc_extended} and {!hybrid}: the
    one lookup for the processing switch, whatever its [max_value]. *)

val value_uniform : Value_config.t -> Value_switch.t Policy.t list
(** Value-model policies applicable when values are arbitrary per packet
    (Section V-C, middle row of Fig. 5): Greedy, NEST, LQD, MVD, MVD1,
    MRD. *)

val value_port :
  port_value:int array -> Value_config.t -> Value_switch.t Policy.t list
(** Value-model policies for the value-per-port special case (bottom row of
    Fig. 5): the uniform set plus the reversed-threshold NHST. *)

val value_extended : Value_config.t -> Value_switch.t Policy.t list
(** The uniform set plus ablations: MRD1 and a random-eviction baseline. *)

val value_find :
  ?port_value:int array ->
  Value_config.t ->
  string ->
  Value_switch.t Policy.t option
(** Case-insensitive lookup by name in {!value_extended}, and in
    {!value_port} when [port_value] is given: the one lookup for the value
    switch. *)
