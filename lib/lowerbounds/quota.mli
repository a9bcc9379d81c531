(** Static per-queue quota policies.

    The scripted OPT strategies in the paper's lower-bound proofs all take
    the same form: reserve a fixed number of buffer slots per queue (for
    example "one packet for each heavy queue, the rest for the 1s") and
    never push out.  A quota policy accepts an arrival iff its destination
    queue is below its quota and the buffer has space. *)

open Smbm_core

val proc : ?name:string -> quota:(int -> int) -> unit -> Proc_switch.t Policy.t
(** [quota port] is that port's reserved slot count. *)

val value :
  ?name:string -> quota:(int -> int) -> unit -> Value_switch.t Policy.t
