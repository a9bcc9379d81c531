(** Buffer-management policies for the processing model.

    A policy is a pure admission rule: given the current switch state and an
    arriving packet's destination port and value, it returns a
    {!Decision.t}.  The paper's processing-model policies ignore the value
    (it is always 1 when [max_value = 1]); the combined work + value
    policies of {!Policies.hybrid} read it.  The
    engine applies the decision; the switch validates it.  Policies with
    per-instance state (none of the paper's need any) can close over it in
    [admit]. *)

type t = {
  name : string;
  push_out : bool;
      (** whether the policy ever evicts admitted packets; informational *)
  admit : Proc_switch.t -> dest:int -> value:int -> Decision.t;
}

val make :
  name:string ->
  push_out:bool ->
  (Proc_switch.t -> dest:int -> value:int -> Decision.t) ->
  t

val admit : t -> Proc_switch.t -> dest:int -> value:int -> Decision.t
