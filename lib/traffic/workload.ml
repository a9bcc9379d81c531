open Smbm_core

(* [fill b i] appends slot [i]'s arrivals onto [b]; [slot] counts the slots
   already consumed, so [i] is always that count. *)
type t = {
  fill : Arrival_batch.t -> int -> unit;
  mutable slot : int;
  mean_rate : float option;
}

let make ?mean_rate fill = { fill; slot = 0; mean_rate }
let push_list b arrivals = List.iter (Arrival_batch.push_arrival b) arrivals

let of_bank bank =
  make ~mean_rate:(Source_bank.mean_rate bank) (fun b _ -> Source_bank.fill bank b)

let of_fun f = make (fun b i -> push_list b (f i))

let of_slots slots =
  make (fun b i -> if i < Array.length slots then push_list b slots.(i))

let of_fun_into f = make f

let next_into t b =
  Arrival_batch.clear b;
  t.fill b t.slot;
  t.slot <- t.slot + 1

let mean_rate t = t.mean_rate
