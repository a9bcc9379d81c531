(** Buffer-management policies for the processing model.

    A policy is a pure admission rule: given the current switch state and an
    arriving packet's destination port, it returns a {!Decision.t}.  The
    engine applies the decision; the switch validates it.  Policies with
    per-instance state (none of the paper's need any) can close over it in
    [admit]. *)

type t = {
  name : string;
  push_out : bool;
      (** whether the policy ever evicts admitted packets; informational *)
  admit : Proc_switch.t -> dest:int -> Decision.t;
}

val make :
  name:string -> push_out:bool -> (Proc_switch.t -> dest:int -> Decision.t) -> t

val admit : t -> Proc_switch.t -> dest:int -> Decision.t

val greedy_accept : Proc_switch.t -> Decision.t option
(** [Some Accept] when the buffer has free space — the shared first clause of
    every greedy policy in the paper — and [None] otherwise. *)
