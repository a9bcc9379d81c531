open Smbm_core
module Flight = Smbm_obs.Flight

(* One search for both models.  A queue is its head-of-line residual plus
   the values of its packets in transmission order; the array of them is
   the whole buffer.  Only the discipline differs between the models: how
   an accepted packet enters its queue and how a transmission phase serves
   one. *)

type queue = int * int list

module State = struct
  type t = { slot : int; idx : int; queues : queue array }

  let equal a b = a.slot = b.slot && a.idx = b.idx && a.queues = b.queues
  let hash t = Hashtbl.hash (t.slot, t.idx, t.queues)
end

module Tbl = Hashtbl.Make (State)

type discipline = {
  enqueue : dest:int -> value:int -> queue -> queue;
  serve : int -> queue -> queue * int * int;
      (** one transmission phase of queue [i]: the queue after it, the
          packets transmitted and their value *)
}

let search ?events ~name ~n ~buffer ~unit_priced d trace ~drain =
  let total_slots = Array.length trace + drain in
  let value_of (a : Arrival.t) = if unit_priced then 1 else a.value in
  let arrivals_at slot =
    if slot < Array.length trace then Array.of_list trace.(slot) else [||]
  in
  let memo = Tbl.create 4096 in
  let occupancy queues =
    Array.fold_left (fun acc (_, values) -> acc + List.length values) 0 queues
  in
  let enqueue queues (a : Arrival.t) =
    let queues = Array.copy queues in
    queues.(a.dest) <-
      d.enqueue ~dest:a.dest ~value:(value_of a) queues.(a.dest);
    queues
  in
  let rec best (st : State.t) =
    if st.slot >= total_slots then 0
    else
      match Tbl.find_opt memo st with
      | Some v -> v
      | None ->
        let arrivals = arrivals_at st.slot in
        let v =
          if st.idx < Array.length arrivals then begin
            let skip = best { st with idx = st.idx + 1 } in
            if occupancy st.queues < buffer then
              let queues = enqueue st.queues arrivals.(st.idx) in
              max skip (best { st with idx = st.idx + 1; queues })
            else skip
          end
          else begin
            let queues = Array.copy st.queues in
            let value = ref 0 in
            Array.iteri
              (fun i q ->
                let q', _, v = d.serve i q in
                queues.(i) <- q';
                value := !value + v)
              st.queues;
            !value + best { slot = st.slot + 1; idx = 0; queues }
          end
        in
        Tbl.add memo st v;
        v
  in
  let initial = { State.slot = 0; idx = 0; queues = Array.make n (0, []) } in
  let result = best initial in
  (* Replay the argmax path through the memo table as an event trace: the
     same accept/drop choices [best] scored, with deterministic per-port
     transmissions.  Ties between skipping and accepting resolve to skip,
     exactly as [max skip accept] does above. *)
  (match events with
  | None -> ()
  | Some f ->
    let src = Flight.intern f name in
    let st = ref initial in
    while !st.State.slot < total_slots do
      let s = !st in
      let slot = s.State.slot in
      let arrivals = arrivals_at slot in
      if s.State.idx < Array.length arrivals then begin
        let a = arrivals.(s.State.idx) in
        Flight.arrival f ~slot ~src ~dest:a.dest;
        let skip_state = { s with State.idx = s.State.idx + 1 } in
        let accept_state =
          if occupancy s.State.queues < buffer then
            Some { skip_state with State.queues = enqueue s.State.queues a }
          else None
        in
        match accept_state with
        | Some acc_st when best acc_st > best skip_state ->
          Flight.accept f ~slot ~src ~dest:a.dest;
          st := acc_st
        | Some _ | None ->
          Flight.drop f ~slot ~src ~dest:a.dest ~value:(value_of a);
          st := skip_state
      end
      else begin
        let queues = Array.copy s.State.queues in
        Array.iteri
          (fun i q ->
            let q', count, value = d.serve i q in
            queues.(i) <- q';
            if count > 0 then
              Flight.transmit_bulk f ~slot ~src ~dest:i ~count ~value)
          queues;
        Flight.slot_end f ~slot ~src ~occupancy:(occupancy queues);
        st := { State.slot = slot + 1; idx = 0; queues }
      end
    done);
  result

(* FIFO work queues: every packet of queue [i] needs [work i] cycles, so a
   queue is its head-of-line residual and its values in arrival order;
   [speedup] cycles per slot go head-of-line, run-to-completion. *)
let proc ?events ?(name = "EXACT") config trace ~drain =
  if drain < 0 then invalid_arg "Exact_opt.proc: negative drain";
  let cycles = config.Proc_config.speedup in
  let enqueue ~dest ~value (hol, values) =
    let hol = if values = [] then Proc_config.work config dest else hol in
    (hol, values @ [ value ])
  in
  let serve i (hol, values) =
    let work = Proc_config.work config i in
    let rec go budget hol values sent value =
      match values with
      | [] -> ((0, []), sent, value)
      | v :: rest ->
        if budget = 0 then ((hol, values), sent, value)
        else if budget >= hol then
          go (budget - hol) work rest (sent + 1) (value + v)
        else ((hol - budget, values), sent, value)
    in
    go cycles hol values 0 0
  in
  search ?events ~name ~n:(Proc_config.n config)
    ~buffer:config.Proc_config.buffer
    ~unit_priced:(Proc_config.unit_priced config)
    { enqueue; serve } trace ~drain

(* Value-sorted unit-work queues: a queue is its values in descending
   order (the residual stays 0); a slot pops up to [speedup] heads. *)
let value ?events ?(name = "EXACT") config trace ~drain =
  if drain < 0 then invalid_arg "Exact_opt.value: negative drain";
  let per_slot = config.Value_config.speedup in
  let rec insert_desc v = function
    | [] -> [ v ]
    | x :: rest when x >= v -> x :: insert_desc v rest
    | rest -> v :: rest
  in
  let enqueue ~dest:_ ~value (_, values) = (0, insert_desc value values) in
  let serve _ (_, values) =
    let rec take budget count value = function
      | v :: rest when budget > 0 ->
        take (budget - 1) (count + 1) (value + v) rest
      | rest -> ((0, rest), count, value)
    in
    take per_slot 0 0 values
  in
  search ?events ~name ~n:(Value_config.n config)
    ~buffer:config.Value_config.buffer ~unit_priced:false { enqueue; serve }
    trace ~drain
