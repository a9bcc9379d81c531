open Smbm_core
module Flight = Smbm_obs.Flight

let create_controlled ?name ?events config (policy_ref : Value_policy.t ref) =
  let name = Option.value name ~default:!policy_ref.name in
  let sw = Value_switch.create config in
  let metrics = Metrics.create () in
  let ports = Port_stats.create ~n:(Value_config.n config) in
  (* Recording takes only immediate ints (the source is interned once
     here), so an attached ring costs column writes, not allocation. *)
  let src = match events with Some f -> Flight.intern f name | None -> 0 in
  let arrive_dv ~dest ~value =
    Metrics.record_arrival metrics;
    (match events with
    | None -> ()
    | Some f ->
      Flight.arrival f ~slot:(Value_switch.now sw) ~src ~dest);
    match Value_policy.admit !policy_ref sw ~dest ~value with
    | Decision.Accept ->
      Value_switch.accept sw ~dest ~value;
      Metrics.record_accept metrics;
      (match events with
      | None -> ()
      | Some f ->
        Flight.accept f ~slot:(Value_switch.now sw) ~src ~dest)
    | Decision.Push_out { victim } ->
      if not (Value_switch.is_full sw) then
        invalid_arg
          (name ^ ": push-out decision while the buffer has free space");
      let lost = Value_switch.push_out sw ~victim in
      Metrics.record_push_out metrics;
      (match events with
      | None -> ()
      | Some f ->
        Flight.push_out f ~slot:(Value_switch.now sw) ~src ~victim ~dest ~lost);
      Value_switch.accept sw ~dest ~value;
      Metrics.record_accept metrics;
      (match events with
      | None -> ()
      | Some f ->
        Flight.accept f ~slot:(Value_switch.now sw) ~src ~dest)
    | Decision.Drop ->
      Metrics.record_drop metrics;
      (match events with
      | None -> ()
      | Some f ->
        Flight.drop f ~slot:(Value_switch.now sw) ~src ~dest ~value)
  in
  let arrive (a : Arrival.t) = arrive_dv ~dest:a.dest ~value:a.value in
  let transmit =
    let on_transmit ~dest ~value ~arrival =
      let latency = Value_switch.now sw - arrival in
      Metrics.record_transmit metrics ~value
        ~latency:(float_of_int latency);
      Port_stats.record ports ~port:dest ~value;
      match events with
      | None -> ()
      | Some f ->
        Flight.transmit f ~slot:(Value_switch.now sw) ~src ~dest ~value ~latency
    in
    fun () -> ignore (Value_switch.transmit_phase sw ~on_transmit)
  in
  let end_slot () =
    let occupancy = Value_switch.occupancy sw in
    Metrics.record_occupancy metrics occupancy;
    (match events with
    | None -> ()
    | Some f ->
      Flight.slot_end f ~slot:(Value_switch.now sw) ~src ~occupancy);
    Value_switch.advance_slot sw
  in
  let flush () =
    let count = Value_switch.flush sw in
    Metrics.record_flush metrics count;
    (match events with
    | None -> ()
    | Some f ->
      Flight.flush f ~slot:(Value_switch.now sw) ~src ~count);
    Metrics.check_conservation metrics
  in
  let check () =
    Value_switch.check_invariants sw;
    Metrics.check_conservation metrics;
    if Metrics.in_buffer metrics <> Value_switch.occupancy sw then
      invalid_arg (name ^ ": metrics in-buffer count out of sync with switch")
  in
  let inst : Instance.t =
    {
      name;
      arrive;
      arrive_dv;
      arrive_batch = None;
      transmit;
      end_slot;
      flush;
      occupancy = (fun () -> Value_switch.occupancy sw);
      metrics;
      ports = Some ports;
      check;
    }
  in
  (inst, sw)

let create ?name ?events config (policy : Value_policy.t) =
  create_controlled ?name ?events config (ref policy)

let instance ?name ?events config policy =
  fst (create ?name ?events config policy)
