open Smbm_core

let create_controlled ?name ?recorder ?flight config
    (policy_ref : Proc_policy.t ref) =
  let name = Option.value name ~default:!policy_ref.name in
  let sw = Proc_switch.create config in
  let metrics = Metrics.create () in
  let ports = Port_stats.create ~n:(Proc_config.n config) in
  let record =
    match recorder with
    | None -> fun (_ : Smbm_obs.Event.kind) -> ()
    | Some r ->
      fun kind ->
        Smbm_obs.Recorder.record r ~slot:(Proc_switch.now sw) ~who:name kind
  in
  (* Events are records: guard construction, not just delivery — an
     untraced run must not allocate an event per arrival. *)
  let recording = Option.is_some recorder in
  (* The flight ring takes only immediate ints (source interned once
     here), so leaving it on costs column writes, not allocation. *)
  let fsrc =
    match flight with Some f -> Smbm_obs.Flight.intern f name | None -> 0
  in
  let arrive_dv ~dest ~value:_ =
    Metrics.record_arrival metrics;
    if recording then record (Smbm_obs.Event.Arrival { dest });
    (match flight with
    | None -> ()
    | Some f ->
      Smbm_obs.Flight.arrival f ~slot:(Proc_switch.now sw) ~src:fsrc ~dest);
    match Proc_policy.admit !policy_ref sw ~dest with
    | Decision.Accept ->
      Proc_switch.accept sw ~dest;
      Metrics.record_accept metrics;
      if recording then record (Smbm_obs.Event.Accept { dest });
      (match flight with
      | None -> ()
      | Some f ->
        Smbm_obs.Flight.accept f ~slot:(Proc_switch.now sw) ~src:fsrc ~dest)
    | Decision.Push_out { victim } ->
      if not (Proc_switch.is_full sw) then
        invalid_arg
          (name ^ ": push-out decision while the buffer has free space");
      Proc_switch.push_out sw ~victim;
      Metrics.record_push_out metrics;
      if recording then record (Smbm_obs.Event.Push_out { victim; dest; lost = 1 });
      (match flight with
      | None -> ()
      | Some f ->
        Smbm_obs.Flight.push_out f ~slot:(Proc_switch.now sw) ~src:fsrc
          ~victim ~dest ~lost:1);
      Proc_switch.accept sw ~dest;
      Metrics.record_accept metrics;
      if recording then record (Smbm_obs.Event.Accept { dest });
      (match flight with
      | None -> ()
      | Some f ->
        Smbm_obs.Flight.accept f ~slot:(Proc_switch.now sw) ~src:fsrc ~dest)
    | Decision.Drop ->
      Metrics.record_drop metrics;
      if recording then record (Smbm_obs.Event.Drop { dest; value = 1 });
      (match flight with
      | None -> ()
      | Some f ->
        Smbm_obs.Flight.drop f ~slot:(Proc_switch.now sw) ~src:fsrc ~dest
          ~value:1)
  in
  let arrive (a : Arrival.t) = arrive_dv ~dest:a.dest ~value:a.value in
  let transmit =
    let on_transmit ~dest ~arrival =
      let latency = Proc_switch.now sw - arrival in
      Metrics.record_transmit metrics ~value:1
        ~latency:(float_of_int latency);
      Port_stats.record ports ~port:dest ~value:1;
      if recording then
        record (Smbm_obs.Event.Transmit { dest; value = 1; latency });
      match flight with
      | None -> ()
      | Some f ->
        Smbm_obs.Flight.transmit f ~slot:(Proc_switch.now sw) ~src:fsrc
          ~dest ~value:1 ~latency
    in
    fun () -> ignore (Proc_switch.transmit_phase sw ~on_transmit)
  in
  let end_slot () =
    let occupancy = Proc_switch.occupancy sw in
    Metrics.record_occupancy metrics occupancy;
    if recording then record (Smbm_obs.Event.Slot_end { occupancy });
    (match flight with
    | None -> ()
    | Some f ->
      Smbm_obs.Flight.slot_end f ~slot:(Proc_switch.now sw) ~src:fsrc
        ~occupancy);
    Proc_switch.advance_slot sw
  in
  let flush () =
    let count = Proc_switch.flush sw in
    Metrics.record_flush metrics count;
    if recording then record (Smbm_obs.Event.Flush { count });
    (match flight with
    | None -> ()
    | Some f ->
      Smbm_obs.Flight.flush f ~slot:(Proc_switch.now sw) ~src:fsrc ~count);
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
      arrive;
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

let create ?name ?recorder ?flight config (policy : Proc_policy.t) =
  create_controlled ?name ?recorder ?flight config (ref policy)

let instance ?name ?recorder ?flight config policy =
  fst (create ?name ?recorder ?flight config policy)
