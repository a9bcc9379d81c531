(** Buffer-management policies, for either switch model.

    A policy is a pure admission rule: given the current switch state and
    an arriving packet's destination port and value, it returns a
    {!Decision.t}.  ['sw] is the switch it reads: {!Proc_switch.t} for the
    processing model (and the combined work + value model on it),
    {!Value_switch.t} for the value model.  The paper's processing-model
    policies ignore the value (it is always 1 when [max_value = 1]); the
    value-aware ones read it.  The engine applies the decision; the switch
    validates it.  Policies with per-instance state (none of the paper's
    need any) can close over it in [admit]. *)

type 'sw t = {
  name : string;
  push_out : bool;
      (** whether the policy ever evicts admitted packets; informational *)
  admit : 'sw -> dest:int -> value:int -> Decision.t;
}

val make :
  name:string ->
  push_out:bool ->
  ('sw -> dest:int -> value:int -> Decision.t) ->
  'sw t

val admit : 'sw t -> 'sw -> dest:int -> value:int -> Decision.t

val find : string -> 'sw t list -> 'sw t option
(** Case-insensitive lookup by name; the first match wins. *)
