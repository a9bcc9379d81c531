open Smbm_core
module Flight = Smbm_obs.Flight

let create_controlled ?name ?events config (policy_ref : Proc_policy.t ref) =
  let name = Option.value name ~default:!policy_ref.name in
  let sw = Proc_switch.create config in
  let metrics = Metrics.create () in
  let ports = Port_stats.create ~n:(Proc_config.n config) in
  (* Recording takes only immediate ints (the source is interned once
     here), so an attached ring costs column writes, not allocation. *)
  let src = match events with Some f -> Flight.intern f name | None -> 0 in
  (* The processing model (max_value = 1) prices every packet at 1,
     whatever value the arrival carries: value traffic replayed into it
     yields the same decisions, counters and events as unit traffic. *)
  let unit_value = config.Proc_config.max_value = 1 in
  let arrive_dv ~dest ~value =
    let value = if unit_value then 1 else value in
    Metrics.record_arrival metrics;
    (match events with
    | None -> ()
    | Some f ->
      Flight.arrival f ~slot:(Proc_switch.now sw) ~src ~dest);
    let d = Proc_policy.admit !policy_ref sw ~dest ~value in
    (* A push-out makes room, then the arrival is accepted as usual. *)
    if Decision.is_push_out d then begin
      if not (Proc_switch.is_full sw) then
        invalid_arg
          (name ^ ": push-out decision while the buffer has free space");
      let victim = Decision.victim d in
      let lost = Proc_switch.push_out sw ~victim in
      Metrics.record_push_out metrics;
      match events with
      | None -> ()
      | Some f ->
        Flight.push_out f ~slot:(Proc_switch.now sw) ~src ~victim ~dest ~lost
    end;
    if Decision.is_drop d then begin
      Metrics.record_drop metrics;
      match events with
      | None -> ()
      | Some f -> Flight.drop f ~slot:(Proc_switch.now sw) ~src ~dest ~value
    end
    else begin
      Proc_switch.accept sw ~dest ~value;
      Metrics.record_accept metrics;
      match events with
      | None -> ()
      | Some f -> Flight.accept f ~slot:(Proc_switch.now sw) ~src ~dest
    end
  in
  let transmit =
    let on_transmit ~dest ~value ~arrival =
      let latency = Proc_switch.now sw - arrival in
      Metrics.record_transmit metrics ~value ~latency;
      Port_stats.record ports ~port:dest ~value;
      match events with
      | None -> ()
      | Some f ->
        Flight.transmit f ~slot:(Proc_switch.now sw) ~src ~dest ~value ~latency
    in
    fun () -> ignore (Proc_switch.transmit_phase sw ~on_transmit)
  in
  let end_slot () =
    let occupancy = Proc_switch.occupancy sw in
    Metrics.record_occupancy metrics occupancy;
    (match events with
    | None -> ()
    | Some f ->
      Flight.slot_end f ~slot:(Proc_switch.now sw) ~src ~occupancy);
    Proc_switch.advance_slot sw
  in
  let flush () =
    let count = Proc_switch.flush sw in
    Metrics.record_flush metrics count;
    (match events with
    | None -> ()
    | Some f ->
      Flight.flush f ~slot:(Proc_switch.now sw) ~src ~count);
    Metrics.check_conservation metrics
  in
  let check () =
    Proc_switch.check_invariants sw;
    Metrics.check_conservation metrics;
    if Metrics.in_buffer metrics <> Proc_switch.occupancy sw then
      invalid_arg (name ^ ": metrics in-buffer count out of sync with switch")
  in
  let inst : Instance.t =
    {
      name;
      arrive_dv;
      arrive_batch = None;
      transmit;
      end_slot;
      flush;
      occupancy = (fun () -> Proc_switch.occupancy sw);
      metrics;
      ports = Some ports;
      check;
    }
  in
  (inst, sw)

let create ?name ?events config (policy : Proc_policy.t) =
  create_controlled ?name ?events config (ref policy)

let instance ?name ?events config policy =
  fst (create ?name ?events config policy)
