(** Drives a {!Smbm_core.Value_policy} over a {!Smbm_core.Value_switch} as a
    steppable {!Instance}.  Decision legality is enforced as in
    {!Proc_engine}. *)

open Smbm_core

val create :
  ?name:string ->
  ?events:Smbm_obs.Flight.t ->
  Value_config.t ->
  Value_policy.t ->
  Instance.t * Value_switch.t
(** [events] receives every per-slot event (see
    {!Proc_engine.create}). *)

val instance :
  ?name:string ->
  ?events:Smbm_obs.Flight.t ->
  Value_config.t ->
  Value_policy.t ->
  Instance.t

val create_controlled :
  ?name:string ->
  ?events:Smbm_obs.Flight.t ->
  Value_config.t ->
  Value_policy.t ref ->
  Instance.t * Value_switch.t
(** The policy is read through the ref on every admission, so it can be
    swapped mid-run; see {!Proc_engine.create_controlled}. *)
