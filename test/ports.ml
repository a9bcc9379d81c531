(* Per-port queue contents read through the switches' [iter_port], as
   plain lists in the switch's own order: FIFO (head of line first) for the
   processing model, transmission order (value descending, oldest first
   among equal values) for the value model. *)

open Smbm_core

let proc sw i =
  let acc = ref [] in
  Proc_switch.iter_port sw i (fun ~id ~residual ~arrival ->
      acc := (id, residual, arrival) :: !acc);
  List.rev !acc

let value sw i =
  let acc = ref [] in
  Value_switch.iter_port sw i (fun ~id ~value ~arrival ->
      acc := (id, value, arrival) :: !acc);
  List.rev !acc

let ids l = List.map (fun (id, _, _) -> id) l
let seconds l = List.map (fun (_, x, _) -> x) l
