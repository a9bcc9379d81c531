(* Per-port queue contents read through the switches' [iter_port], as
   plain lists in the switch's own order: FIFO (head of line first) for the
   processing model, transmission order (value descending, oldest first
   among equal values) for the value model. *)

open Smbm_core

(* (id, residual, value, arrival) per packet. *)
let proc_valued sw i =
  let acc = ref [] in
  Proc_switch.iter_port sw i (fun ~id ~residual ~value ~arrival ->
      acc := (id, residual, value, arrival) :: !acc);
  List.rev !acc

let proc sw i = List.map (fun (id, r, _, a) -> (id, r, a)) (proc_valued sw i)

let value sw i =
  let acc = ref [] in
  Value_switch.iter_port sw i (fun ~id ~value ~arrival ->
      acc := (id, value, arrival) :: !acc);
  List.rev !acc

let ids l = List.map (fun (id, _, _) -> id) l
let seconds l = List.map (fun (_, x, _) -> x) l
