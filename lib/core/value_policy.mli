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

val greedy_accept : Value_switch.t -> Decision.t option
(** [Some Accept] when the buffer has free space, [None] otherwise. *)
