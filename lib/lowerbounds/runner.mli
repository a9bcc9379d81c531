(** Shared machinery for running an adversarial construction: a trace, the
    policy under attack, and the proof's scripted OPT strategy, stepped in
    lockstep. *)

open Smbm_core

type measured = {
  alg_throughput : int;
  opt_throughput : int;
  ratio : float;  (** scripted-OPT throughput / policy throughput *)
}

val episodic :
  episode:int ->
  burst:Arrival.t list ->
  trickle:(int -> Arrival.t list) ->
  int ->
  Arrival.t list
(** [episodic ~episode ~burst ~trickle slot]: the burst arrives on the first
    slot of each [episode]-slot period; on within-episode slot [t > 0] the
    arrivals are [trickle t].  Apply partially to get a workload function. *)

val burst : int -> Arrival.t -> Arrival.t list
(** [burst h a] is [h] copies of arrival [a] (the paper's "h x w"). *)

val run_proc :
  config:Proc_config.t ->
  alg:Proc_switch.t Policy.t ->
  opt:Proc_switch.t Policy.t ->
  trace:(int -> Arrival.t list) ->
  slots:int ->
  ?flush_every:int ->
  unit ->
  measured
(** Objective: transmitted packets. *)

val run_value :
  config:Value_config.t ->
  alg:Value_switch.t Policy.t ->
  opt:Value_switch.t Policy.t ->
  trace:(int -> Arrival.t list) ->
  slots:int ->
  ?flush_every:int ->
  unit ->
  measured
(** Objective: transmitted value. *)

val measure_many :
  ?jobs:int ->
  ?on_tick:(int -> unit) ->
  (unit -> measured) list ->
  measured list
(** Run independent constructions (e.g. the [measure] thunks of
    {!Constructions.all}) sharded across a {!Smbm_par.Pool}, results in
    input order.  Each construction builds its own switches and scripted
    OPT, so runs are bit-identical to the sequential [List.map].  [jobs]
    defaults to {!Smbm_par.Pool.default_jobs}; [0] runs inline. *)
