(** Runtime certificate for LWD's 2-competitiveness (Theorem 7).

    The paper proves Theorem 7 with a mapping routine (its Fig. 3) that at
    every instant maps each packet OPT has transmitted to a packet LWD has
    transmitted, at most two OPT packets per LWD packet.  A direct, sharp
    consequence — checkable without reconstructing the mapping — is the
    prefix invariant

      for every slot t:  opponent_transmitted(t) <= 2 * lwd_transmitted(t)

    valid against ANY algorithm (the clairvoyant optimum included, hence any
    opponent we can actually run).  This module executes a policy under
    certification against an opponent in lockstep and checks the invariant
    after every slot.

    A violation against *some* opponent would disprove the policy's
    2-competitiveness on that trace — which is how the module doubles as a
    falsification harness: running LQD under certification on the Theorem 4
    construction finds violations, running LWD never does. *)

type outcome = {
  slots : int;
  violations : int;  (** slots where the prefix invariant failed *)
  first_violation : int option;  (** earliest violating slot *)
  max_prefix_ratio : float;
      (** max over slots of opponent / policy transmissions (0/0 counts
          as 1) *)
  final_policy : int;
  final_opponent : int;
}

val run :
  factor:float ->
  ?objective:[ `Packets | `Value ] ->
  workload:Smbm_traffic.Workload.t ->
  slots:int ->
  ?flush_every:int ->
  policy:Instance.t ->
  opponent:Instance.t ->
  unit ->
  outcome
(** Step both instances over the shared workload, checking
    [opponent <= factor * policy] on the cumulative objective
    (default [`Packets]; use [`Value] to track value-model envelopes, e.g.
    exploring the MRD conjecture) after every slot.  [factor] is 2 for
    Theorem 7; pass [infinity] to only record the max prefix ratio. *)

val certify_lwd :
  ?factor:float ->
  config:Smbm_core.Proc_config.t ->
  workload:Smbm_traffic.Workload.t ->
  slots:int ->
  ?flush_every:int ->
  opponent:Smbm_core.Proc_switch.t Smbm_core.Policy.t ->
  unit ->
  outcome
(** Convenience wrapper: LWD under certification against a processing-model
    opponent policy on the given workload. *)
