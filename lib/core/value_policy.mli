(** Buffer-management policies for the value model.

    Like {!Proc_policy}, but the arriving packet additionally carries its
    intrinsic value. *)

type t = {
  name : string;
  push_out : bool;
  admit : Value_switch.t -> dest:int -> value:int -> Decision.t;
}

val make :
  name:string ->
  push_out:bool ->
  (Value_switch.t -> dest:int -> value:int -> Decision.t) ->
  t

val admit : t -> Value_switch.t -> dest:int -> value:int -> Decision.t
