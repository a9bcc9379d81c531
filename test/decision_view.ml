(* A decision as a variant, so that tests can match on it ({!Decision.t} is
   an immediate integer). *)

open Smbm_core

type t = Accept | Push_out of int | Drop

let of_decision d =
  if Decision.is_accept d then Accept
  else if Decision.is_drop d then Drop
  else Push_out (Decision.victim d)
