open Smbm_core

(* ----- processing model (FIFO queues, optionally valued) -----

   A queue is its head-of-line residual plus the values of its packets in
   FIFO order: packets within a queue need the same work, so that is the
   whole queue; the array of them is the whole buffer.  At [max_value = 1]
   every value is 1 and the objective is the packet count. *)

module Proc_state = struct
  type t = { slot : int; idx : int; queues : (int * int list) array }

  let equal a b = a.slot = b.slot && a.idx = b.idx && a.queues = b.queues

  let hash t = Hashtbl.hash (t.slot, t.idx, t.queues)
end

module Proc_tbl = Hashtbl.Make (Proc_state)

let proc ?events ?(name = "EXACT") config trace ~drain =
  if drain < 0 then invalid_arg "Exact_opt.proc: negative drain";
  let n = Proc_config.n config in
  let buffer = config.Proc_config.buffer in
  let cycles = config.Proc_config.speedup in
  let total_slots = Array.length trace + drain in
  (* The engine's rule: the processing model prices every packet at 1. *)
  let value_of (a : Arrival.t) =
    if config.Proc_config.max_value = 1 then 1 else a.value
  in
  let arrivals_at slot =
    if slot < Array.length trace then Array.of_list trace.(slot) else [||]
  in
  let memo = Proc_tbl.create 4096 in
  let occupancy queues =
    Array.fold_left (fun acc (_, values) -> acc + List.length values) 0 queues
  in
  let enqueue queues (a : Arrival.t) =
    let queues = Array.copy queues in
    let hol, values = queues.(a.dest) in
    let hol = if values = [] then Proc_config.work config a.dest else hol in
    queues.(a.dest) <- (hol, values @ [ value_of a ]);
    queues
  in
  (* Deterministic transmission phase of one queue: returns the queue
     after it, the packets transmitted and their value. *)
  let serve_queue i (hol, values) =
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
  let transmit queues =
    let queues = Array.copy queues in
    let value = ref 0 in
    Array.iteri
      (fun i q ->
        let q', _, v = serve_queue i q in
        queues.(i) <- q';
        value := !value + v)
      queues;
    (queues, !value)
  in
  let rec best (st : Proc_state.t) =
    if st.slot >= total_slots then 0
    else
      match Proc_tbl.find_opt memo st with
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
            let queues, value = transmit st.queues in
            value + best { slot = st.slot + 1; idx = 0; queues }
          end
        in
        Proc_tbl.add memo st v;
        v
  in
  let initial =
    { Proc_state.slot = 0; idx = 0; queues = Array.make n (0, []) }
  in
  let result = best initial in
  (* Replay the argmax path through the memo table as an event trace: the
     same accept/drop choices [best] scored, with deterministic per-port
     transmissions.  Ties between skipping and accepting resolve to skip,
     exactly as [max skip accept] does above. *)
  (match events with
  | None -> ()
  | Some f ->
    let src = Smbm_obs.Flight.intern f name in
    let st = ref initial in
    while !st.Proc_state.slot < total_slots do
      let s = !st in
      let slot = s.Proc_state.slot in
      let arrivals = arrivals_at slot in
      if s.Proc_state.idx < Array.length arrivals then begin
        let a = arrivals.(s.Proc_state.idx) in
        Smbm_obs.Flight.arrival f ~slot ~src ~dest:a.Arrival.dest;
        let skip_state = { s with Proc_state.idx = s.Proc_state.idx + 1 } in
        let accept_state =
          if occupancy s.Proc_state.queues < buffer then
            Some
              {
                skip_state with
                Proc_state.queues = enqueue s.Proc_state.queues a;
              }
          else None
        in
        match accept_state with
        | Some acc_st when best acc_st > best skip_state ->
          Smbm_obs.Flight.accept f ~slot ~src ~dest:a.Arrival.dest;
          st := acc_st
        | Some _ | None ->
          Smbm_obs.Flight.drop f ~slot ~src ~dest:a.Arrival.dest
            ~value:(value_of a);
          st := skip_state
      end
      else begin
        let queues = Array.copy s.Proc_state.queues in
        Array.iteri
          (fun i q ->
            let q', count, value = serve_queue i q in
            queues.(i) <- q';
            if count > 0 then
              Smbm_obs.Flight.transmit_bulk f ~slot ~src ~dest:i ~count ~value)
          queues;
        Smbm_obs.Flight.slot_end f ~slot ~src ~occupancy:(occupancy queues);
        st := { Proc_state.slot = slot + 1; idx = 0; queues }
      end
    done);
  result

(* ----- value model -----

   A queue is a descending-sorted list of values; transmission pops the
   head of every non-empty queue [speedup] times. *)

module Value_state = struct
  type t = { slot : int; idx : int; queues : int list array }

  let equal a b = a.slot = b.slot && a.idx = b.idx && a.queues = b.queues
  let hash t = Hashtbl.hash (t.slot, t.idx, t.queues)
end

module Value_tbl = Hashtbl.Make (Value_state)

let value ?events ?(name = "EXACT") config trace ~drain =
  if drain < 0 then invalid_arg "Exact_opt.value: negative drain";
  let n = Value_config.n config in
  let buffer = config.Value_config.buffer in
  let per_slot = config.Value_config.speedup in
  let total_slots = Array.length trace + drain in
  let arrivals_at slot =
    if slot < Array.length trace then Array.of_list trace.(slot) else [||]
  in
  let memo = Value_tbl.create 4096 in
  let occupancy queues =
    Array.fold_left (fun acc q -> acc + List.length q) 0 queues
  in
  let rec insert_desc v = function
    | [] -> [ v ]
    | x :: rest when x >= v -> x :: insert_desc v rest
    | rest -> v :: rest
  in
  (* Pop up to [per_slot] head values; returns (rest, count, value sum). *)
  let serve_queue q =
    let rec take budget count value = function
      | v :: rest when budget > 0 -> take (budget - 1) (count + 1) (value + v) rest
      | rest -> (rest, count, value)
    in
    take per_slot 0 0 q
  in
  let transmit queues =
    let queues = Array.copy queues in
    let value = ref 0 in
    Array.iteri
      (fun i q ->
        let rest, _, v = serve_queue q in
        value := !value + v;
        queues.(i) <- rest)
      queues;
    (queues, !value)
  in
  let rec best (st : Value_state.t) =
    if st.slot >= total_slots then 0
    else
      match Value_tbl.find_opt memo st with
      | Some v -> v
      | None ->
        let arrivals = arrivals_at st.slot in
        let v =
          if st.idx < Array.length arrivals then begin
            let a = arrivals.(st.idx) in
            let skip = best { st with idx = st.idx + 1 } in
            if occupancy st.queues < buffer then begin
              let queues = Array.copy st.queues in
              queues.(a.Arrival.dest) <-
                insert_desc a.Arrival.value queues.(a.Arrival.dest);
              max skip (best { st with idx = st.idx + 1; queues })
            end
            else skip
          end
          else begin
            let queues, sent = transmit st.queues in
            sent + best { slot = st.slot + 1; idx = 0; queues }
          end
        in
        Value_tbl.add memo st v;
        v
  in
  let initial = { Value_state.slot = 0; idx = 0; queues = Array.make n [] } in
  let result = best initial in
  (match events with
  | None -> ()
  | Some f ->
    let src = Smbm_obs.Flight.intern f name in
    let st = ref initial in
    while !st.Value_state.slot < total_slots do
      let s = !st in
      let slot = s.Value_state.slot in
      let arrivals = arrivals_at slot in
      if s.Value_state.idx < Array.length arrivals then begin
        let a = arrivals.(s.Value_state.idx) in
        Smbm_obs.Flight.arrival f ~slot ~src ~dest:a.Arrival.dest;
        let skip_state = { s with Value_state.idx = s.Value_state.idx + 1 } in
        let accept_state =
          if occupancy s.Value_state.queues < buffer then begin
            let queues = Array.copy s.Value_state.queues in
            queues.(a.Arrival.dest) <-
              insert_desc a.Arrival.value queues.(a.Arrival.dest);
            Some { skip_state with Value_state.queues }
          end
          else None
        in
        match accept_state with
        | Some acc_st when best acc_st > best skip_state ->
          Smbm_obs.Flight.accept f ~slot ~src ~dest:a.Arrival.dest;
          st := acc_st
        | Some _ | None ->
          Smbm_obs.Flight.drop f ~slot ~src ~dest:a.Arrival.dest
            ~value:a.Arrival.value;
          st := skip_state
      end
      else begin
        let queues = Array.copy s.Value_state.queues in
        Array.iteri
          (fun i q ->
            let rest, count, value = serve_queue q in
            queues.(i) <- rest;
            if count > 0 then
              Smbm_obs.Flight.transmit_bulk f ~slot ~src ~dest:i ~count ~value)
          queues;
        Smbm_obs.Flight.slot_end f ~slot ~src ~occupancy:(occupancy queues);
        st := { Value_state.slot = slot + 1; idx = 0; queues }
      end
    done);
  result
