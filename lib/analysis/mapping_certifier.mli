(** Executable version of the paper's mapping routine (its Fig. 3) — the
    machinery behind Theorem 7 ("LWD is at most 2-competitive").

    The proof maintains, at every instant, a mapping from OPT's packets to
    LWD's packets such that (the paper's Lemma 8): the l-th *eligible*
    packet of an OPT queue maps to the l-th packet of the same LWD queue
    when it exists (step A0) with [lat_OPT >= lat_LWD]; otherwise it holds
    an explicit latency-dominating assignment to an LWD packet carrying no
    other one (step A1); push-outs reassign (A2), LWD acceptances release
    stale A1 assignments (A3); and when LWD transmits a packet, the OPT
    packets mapped to it become ineligible — charged to it, at most two per
    LWD packet (T0), which yields the factor 2.

    Running the routine mechanically exposed a gap in the paper's Lemma 8:
    after an LWD push-out empties a queue, the opponent keeps serving its
    own copy and gets a processing cycle ahead; when both then accept fresh
    packets, the new positional pair violates the latency constraint
    (case (4) of the paper's induction asserts it cannot).  The minimal
    trace is two ports with works {1, 2} and B = 2 — see
    [test_mapping_certifier.ml].  The *theorem* survives: this module
    implements a repaired charging scheme — A0 is an explicit mapping
    created only when the latency constraint actually holds, and an
    eligible OPT packet transmitted before its image is charged to that
    image within the same transmission phase (its image's latency can be at
    most its own, so the image must complete in the same phase) — which
    certifies [opponent <= 2 x LWD] packet-by-packet on every run.  The
    literal positional invariant is still tracked and reported separately
    as [strict_a0_mismatches].

    Restrictions, as in the theorem's setting: speedup 1, and the opponent
    never pushes out (the clairvoyant optimum needs no push-out; an opponent
    push-out decision is reported as a misuse violation). *)

type report = {
  events : int;  (** mapping-relevant events processed *)
  violations : string list;  (** first few violation descriptions, oldest first *)
  violation_count : int;
  strict_a0_mismatches : int;
      (** events where the paper's literal positional invariant (Lemma 8)
          failed even though the repaired accounting stayed sound *)
  opt_transmitted : int;
  lwd_transmitted : int;
  max_images : int;
      (** largest number of OPT packets charged to one LWD packet (the
          routine promises <= 2) *)
}

val run :
  config:Smbm_core.Proc_config.t ->
  opponent:Smbm_core.Proc_switch.t Smbm_core.Policy.t ->
  workload:Smbm_traffic.Workload.t ->
  slots:int ->
  ?check_every_event:bool ->
  unit ->
  report
(** Run the certifier for [slots] slots of [workload] (hand-written traffic
    via {!Smbm_traffic.Workload.of_fun}).  [check_every_event] (default
    true) verifies the mapping invariants after every arrival; latency
    constraints are checked at transmission-phase boundaries, where both
    buffers have absorbed the same number of service cycles.
    @raise Invalid_argument if [config] has speedup <> 1. *)

val pp_report : Format.formatter -> report -> unit
