(** Drives a {!Smbm_core.Proc_policy} over a {!Smbm_core.Proc_switch} as a
    steppable {!Instance}.

    The engine enforces decision legality: [Accept] requires free space (the
    switch checks), [Push_out] is only legal when the buffer is full (and the
    switch checks the victim queue is non-empty).  An illegal decision raises
    [Invalid_argument] — a policy bug fails fast instead of skewing an
    experiment.

    Metrics conservation is checked at every flushout, so a policy that
    double-counts fails during the run, not at the final report. *)

open Smbm_core

val create :
  ?name:string ->
  ?events:Smbm_obs.Flight.t ->
  Proc_config.t ->
  Proc_policy.t ->
  Instance.t * Proc_switch.t
(** Fresh instance plus its underlying switch (exposed for inspection in
    tests and examples).  [name] defaults to the policy's name.  Per-port
    transmission tallies are in the instance's [ports].  [events]
    receives every per-slot event (arrival, accept, push-out, drop,
    transmit, slot-end, flush) into its allocation-free ring, with this
    instance's name as source (interned once at creation).  Recording
    changes no decision and no counter.  Every arrival goes through
    [arrive_dv]; the instance's [arrive_batch] is [None]. *)

val instance :
  ?name:string ->
  ?events:Smbm_obs.Flight.t ->
  Proc_config.t ->
  Proc_policy.t ->
  Instance.t
(** [fst (create ...)]. *)

val create_controlled :
  ?name:string ->
  ?events:Smbm_obs.Flight.t ->
  Proc_config.t ->
  Proc_policy.t ref ->
  Instance.t * Proc_switch.t
(** Like {!create}, but the victim policy is read through the given ref on
    {e every} admission, so the caller may swap it mid-run (the
    {!Smbm_serve} daemon does this at slot boundaries).  [name] defaults to
    the initial policy's name and does not change on swap — event [src]
    fields stay stable across reconfigurations. *)
