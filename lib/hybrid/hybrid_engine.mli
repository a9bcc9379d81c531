(** Drives a {!Hybrid_policy} over a {!Hybrid_switch} as a lockstep
    {!Smbm_sim.Instance}, exactly like the two single-characteristic
    engines; the value objective lives in [metrics.transmitted_value]. *)

val create :
  ?name:string ->
  ?events:Smbm_obs.Flight.t ->
  Hybrid_config.t ->
  Hybrid_policy.t ->
  Smbm_sim.Instance.t * Hybrid_switch.t
(** [events] receives every per-slot event (see
    {!Smbm_sim.Proc_engine.create}). *)

val instance :
  ?name:string ->
  ?events:Smbm_obs.Flight.t ->
  Hybrid_config.t ->
  Hybrid_policy.t ->
  Smbm_sim.Instance.t

val exact_opt : Hybrid_config.t -> Smbm_core.Arrival.t list array -> drain:int -> int
(** Brute-force maximum transmitted value on tiny instances (offline OPT
    never pushes out); ground truth for the combined model's tests. *)
