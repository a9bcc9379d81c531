(* One slot's arrivals as a plain list, for literal comparisons. *)

open Smbm_core

(* [batch]'s arrivals, in order. *)
let of_batch batch =
  List.init (Arrival_batch.length batch) (fun i ->
      { Arrival.dest = Arrival_batch.dest batch i; value = Arrival_batch.value batch i })

(* The next slot of [w]: [Workload.next_into] a fresh batch, then read out. *)
let next w =
  let batch = Arrival_batch.create () in
  Smbm_traffic.Workload.next_into w batch;
  of_batch batch
