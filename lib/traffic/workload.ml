open Smbm_core

(* Internal representation: [fill b i] appends slot [i]'s arrivals onto [b]
   (never clearing it — merged components share one batch).  The slot
   argument is authoritative and always equals the number of slots already
   consumed from this workload; [next]/[next_into] are the only entry points
   and they maintain that invariant, so stateful generators may ignore it
   and pure ones may index with it — the two conventions coincide. *)
type t = {
  fill : Arrival_batch.t -> int -> unit;
  mutable slot : int;
  mean_rate : float option;
  mutable scratch : Arrival_batch.t option;
      (* lazily-created private batch backing the list-compatibility [next] *)
}

let make ?mean_rate fill = { fill; slot = 0; mean_rate; scratch = None }

(* Append one slot of [t] onto [b], advancing [t]'s own counter.  This is
   how combinators consume their children: the child's counter advances in
   lockstep with the parent's, so the slot argument a child's [fill] sees is
   the child's own consumed-slot count, same as at top level. *)
let fill_child t b =
  t.fill b t.slot;
  t.slot <- t.slot + 1

let push_list b arrivals = List.iter (Arrival_batch.push_arrival b) arrivals

let of_bank bank =
  make ~mean_rate:(Source_bank.mean_rate bank) (fun b _ -> Source_bank.fill bank b)

let of_fun f = make (fun b i -> push_list b (f i))

let of_slots slots =
  make (fun b i -> if i < Array.length slots then push_list b slots.(i))

let of_fun_into f = make f

let merge components =
  let mean_rate =
    List.fold_left
      (fun acc c ->
        match acc, c.mean_rate with
        | Some total, Some r -> Some (total +. r)
        | _, None | None, _ -> None)
      (Some 0.0) components
  in
  { (make (fun b _ -> List.iter (fun c -> fill_child c b) components)) with
    mean_rate }

let map f t =
  let fill b _ =
    let from = Arrival_batch.length b in
    fill_child t b;
    for i = from to Arrival_batch.length b - 1 do
      let a =
        f { Arrival.dest = Arrival_batch.dest b i; value = Arrival_batch.value b i }
      in
      Arrival_batch.set b i ~dest:a.Arrival.dest ~value:a.Arrival.value
    done
  in
  { (make fill) with mean_rate = t.mean_rate }

let take n t =
  { (make (fun b i -> if i < n then fill_child t b)) with mean_rate = t.mean_rate }

let next_into t b =
  Arrival_batch.clear b;
  fill_child t b

let next t =
  let b =
    match t.scratch with
    | Some b -> b
    | None ->
      let b = Arrival_batch.create () in
      t.scratch <- Some b;
      b
  in
  next_into t b;
  Arrival_batch.to_list b

let slot t = t.slot
let mean_rate t = t.mean_rate
