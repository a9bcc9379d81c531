open Smbm_core
open Smbm_sim
module Flight = Smbm_obs.Flight

let create ?name ?events config (policy : Hybrid_policy.t) =
  let name = Option.value name ~default:policy.name in
  let sw = Hybrid_switch.create config in
  let metrics = Metrics.create () in
  let ports = Port_stats.create ~n:(Hybrid_config.n config) in
  let src = match events with Some f -> Flight.intern f name | None -> 0 in
  let on_transmit (p : Hybrid_switch.packet) =
    let latency = Hybrid_switch.now sw - p.arrival in
    Metrics.record_transmit metrics ~value:p.value
      ~latency:(float_of_int latency);
    Port_stats.record ports ~port:p.dest ~value:p.value;
    match events with
    | None -> ()
    | Some f ->
      Flight.transmit f ~slot:(Hybrid_switch.now sw) ~src ~dest:p.dest
        ~value:p.value ~latency
  in
  let arrive_dv ~dest ~value =
    Metrics.record_arrival metrics;
    (match events with
    | None -> ()
    | Some f -> Flight.arrival f ~slot:(Hybrid_switch.now sw) ~src ~dest);
    match policy.admit sw ~dest ~value with
    | Decision.Accept ->
      ignore (Hybrid_switch.accept sw ~dest ~value);
      Metrics.record_accept metrics;
      (match events with
      | None -> ()
      | Some f -> Flight.accept f ~slot:(Hybrid_switch.now sw) ~src ~dest)
    | Decision.Push_out { victim } ->
      if not (Hybrid_switch.is_full sw) then
        invalid_arg (name ^ ": push-out with free space");
      let evicted = Hybrid_switch.push_out sw ~victim in
      Metrics.record_push_out metrics;
      (match events with
      | None -> ()
      | Some f ->
        Flight.push_out f ~slot:(Hybrid_switch.now sw) ~src ~victim ~dest
          ~lost:evicted.Hybrid_switch.value);
      ignore (Hybrid_switch.accept sw ~dest ~value);
      Metrics.record_accept metrics;
      (match events with
      | None -> ()
      | Some f -> Flight.accept f ~slot:(Hybrid_switch.now sw) ~src ~dest)
    | Decision.Drop ->
      Metrics.record_drop metrics;
      (match events with
      | None -> ()
      | Some f ->
        Flight.drop f ~slot:(Hybrid_switch.now sw) ~src ~dest ~value)
  in
  let arrive (a : Arrival.t) = arrive_dv ~dest:a.dest ~value:a.value in
  let inst : Instance.t =
    {
      name;
      arrive;
      arrive_dv;
      arrive_batch = None;
      transmit =
        (fun () -> ignore (Hybrid_switch.transmit_phase sw ~on_transmit));
      end_slot =
        (fun () ->
          let occupancy = Hybrid_switch.occupancy sw in
          Metrics.record_occupancy metrics occupancy;
          (match events with
          | None -> ()
          | Some f ->
            Flight.slot_end f ~slot:(Hybrid_switch.now sw) ~src ~occupancy);
          Hybrid_switch.advance_slot sw);
      flush =
        (fun () ->
          let count = Hybrid_switch.flush sw in
          Metrics.record_flush metrics count;
          (match events with
          | None -> ()
          | Some f -> Flight.flush f ~slot:(Hybrid_switch.now sw) ~src ~count);
          Metrics.check_conservation metrics);
      occupancy = (fun () -> Hybrid_switch.occupancy sw);
      metrics;
      ports = Some ports;
      check =
        (fun () ->
          Hybrid_switch.check_invariants sw;
          Metrics.check_conservation metrics;
          if Metrics.in_buffer metrics <> Hybrid_switch.occupancy sw then
            invalid_arg (name ^ ": metrics out of sync"));
    }
  in
  (inst, sw)

let instance ?name ?events config policy =
  fst (create ?name ?events config policy)

(* Brute-force optimum: queues are FIFO lists of (residual, value); only
   accept/drop branches (offline OPT needs no push-out). *)
module State = struct
  type t = { slot : int; idx : int; queues : (int * int) list array }

  let equal a b = a.slot = b.slot && a.idx = b.idx && a.queues = b.queues
  let hash t = Hashtbl.hash (t.slot, t.idx, t.queues)
end

module Tbl = Hashtbl.Make (State)

let exact_opt config trace ~drain =
  if drain < 0 then invalid_arg "Hybrid_engine.exact_opt: negative drain";
  let n = Hybrid_config.n config in
  let buffer = Hybrid_config.buffer config in
  let cycles = config.Hybrid_config.proc.Proc_config.speedup in
  let total_slots = Array.length trace + drain in
  let arrivals_at slot =
    if slot < Array.length trace then Array.of_list trace.(slot) else [||]
  in
  let memo = Tbl.create 4096 in
  let occupancy queues =
    Array.fold_left (fun acc q -> acc + List.length q) 0 queues
  in
  let transmit queues =
    let queues = Array.copy queues in
    let value = ref 0 in
    Array.iteri
      (fun i q ->
        let rec serve budget = function
          | [] -> []
          | (residual, v) :: rest ->
            if budget = 0 then (residual, v) :: rest
            else begin
              let used = min budget residual in
              if residual - used = 0 then begin
                value := !value + v;
                serve (budget - used) rest
              end
              else (residual - used, v) :: rest
            end
        in
        queues.(i) <- serve cycles q)
      queues;
    (queues, !value)
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
            let a = arrivals.(st.idx) in
            let skip = best { st with idx = st.idx + 1 } in
            if occupancy st.queues < buffer then begin
              let queues = Array.copy st.queues in
              queues.(a.Arrival.dest) <-
                queues.(a.Arrival.dest)
                @ [ (Hybrid_config.work config a.Arrival.dest, a.Arrival.value) ];
              max skip (best { st with idx = st.idx + 1; queues })
            end
            else skip
          end
          else begin
            let queues, value = transmit st.queues in
            value + best { slot = st.slot + 1; idx = 0; queues }
          end
        in
        Tbl.add memo st v;
        v
  in
  best { slot = 0; idx = 0; queues = Array.make n [] }
