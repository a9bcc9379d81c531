(** Harmonic static thresholds for the value model.

    Meaningful in configurations where each port is associated with a value
    (the value-equals-port special case of Section V-C).  The direct variant
    reuses the processing-model thresholds [B / (v_i * Z)]; since high-value
    packets are now the desirable ones, the paper instead reverses the
    thresholds to [B / ((k - v_i + 1) * H_k)], giving high-value ports the
    large shares. *)

val make :
  ?reversed:bool ->
  port_value:int array ->
  Value_config.t ->
  Value_switch.t Policy.t
(** [port_value.(i)] is the value associated with port [i].
    [reversed] defaults to [true] (the variant the paper simulates). *)

val threshold :
  reversed:bool -> port_value:int array -> buffer:int -> int -> float
(** Admission threshold of port [i]; exposed for tests. *)
