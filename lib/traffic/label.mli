(** Packet-labelling rules: how an emitted packet gets its output port and
    (in the value model) its intrinsic value.

    A rule is a first-order description, not a function: the source bank
    draws every label of a slot in one loop.  Each constructor validates
    its arguments. *)

open Smbm_prelude

type t = private Rng.Bank.label

val uniform_port : n:int -> t
(** Destination uniform on [0, n); value 1 (processing model: the port
    determines the work).  Requires [n >= 1]. *)

val uniform_port_and_value : n:int -> k:int -> t
(** Destination uniform on [0, n), value uniform on [1, k], independently
    (Fig. 5 panels 4-6).  Requires [n, k >= 1]. *)

val value_equals_port : n:int -> t
(** Destination uniform on [0, n); value = port index + 1, so each port
    carries exactly one value (Fig. 5 panels 7-9).  Requires [n >= 1]. *)

val fixed_port : dest:int -> ?value:int -> unit -> t
(** Every packet to [dest] with [value] (default 1). *)

val weighted_port : weights:float array -> ?value_of_port:(int -> int) -> unit -> t
(** Destination drawn proportionally to [weights]; value given by
    [value_of_port] (default 1), tabulated once per port.
    @raise Invalid_argument if weights are empty, negative, non-finite or
    all zero, or a port's value is below 1. *)
