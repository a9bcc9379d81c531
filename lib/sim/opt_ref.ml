open Smbm_prelude
open Smbm_core

module Flight = Smbm_obs.Flight

(* The reference has no per-port structure, so its events speak the bag's
   language: push-out victims are bag keys (residual work / value) and
   transmissions are per-slot [Transmit_bulk] events with dest = -1.  That is
   enough for Smbm_forensics to reconstruct and certify every aggregate
   counter, and for trace diffs against a policy trace of the same arrival
   instance. *)

let proc_instance ?(name = "OPT") ?cores ?events config =
  let cores =
    match cores with
    | Some c -> c
    | None -> Proc_config.n config * config.Proc_config.speedup
  in
  if cores < 1 then invalid_arg "Opt_ref.proc_instance: cores must be >= 1";
  let buffer = config.Proc_config.buffer in
  let bag = Count_multiset.create ~k:(Proc_config.k config) in
  let metrics = Metrics.create () in
  let slot = ref 0 in
  let src = match events with Some f -> Flight.intern f name | None -> 0 in
  let arrive_dv ~dest ~value:_ =
    Metrics.record_arrival metrics;
    (match events with
    | None -> ()
    | Some f -> Flight.arrival f ~slot:!slot ~src ~dest);
    let work = Proc_config.work config dest in
    if Count_multiset.size bag < buffer then begin
      Count_multiset.add bag work;
      Metrics.record_accept metrics;
      (match events with
      | None -> ()
      | Some f -> Flight.accept f ~slot:!slot ~src ~dest)
    end
    else begin
      match Count_multiset.max_key bag with
      | Some worst when worst > work ->
        Count_multiset.remove bag worst;
        Count_multiset.add bag work;
        Metrics.record_push_out metrics;
        (match events with
        | None -> ()
        | Some f ->
          Flight.push_out f ~slot:!slot ~src ~victim:worst ~dest ~lost:1);
        Metrics.record_accept metrics;
        (match events with
        | None -> ()
        | Some f -> Flight.accept f ~slot:!slot ~src ~dest)
      | Some _ | None ->
        Metrics.record_drop metrics;
        (match events with
        | None -> ()
        | Some f -> Flight.drop f ~slot:!slot ~src ~dest ~value:1)
    end
  in
  let arrive (a : Arrival.t) = arrive_dv ~dest:a.dest ~value:a.value in
  let transmit () =
    (* SRPT with the full per-slot cycle budget: cycles may stack on one
       packet within a slot, so the reference dominates real queues at any
       speedup (a queue can burn C cycles into successive packets). *)
    let sent = Count_multiset.serve_srpt bag ~budget:cores in
    Metrics.record_transmissions metrics ~count:sent ~value:sent;
    if sent > 0 then
      match events with
      | None -> ()
      | Some f ->
        Flight.transmit_bulk f ~slot:!slot ~src ~dest:(-1) ~count:sent
          ~value:sent
  in
  let end_slot () =
    let occupancy = Count_multiset.size bag in
    Metrics.record_occupancy metrics occupancy;
    (match events with
    | None -> ()
    | Some f -> Flight.slot_end f ~slot:!slot ~src ~occupancy);
    incr slot
  in
  let flush () =
    let count = Count_multiset.size bag in
    Metrics.record_flush metrics count;
    (match events with
    | None -> ()
    | Some f -> Flight.flush f ~slot:!slot ~src ~count);
    Count_multiset.clear bag;
    Metrics.check_conservation metrics
  in
  let check () =
    Metrics.check_conservation metrics;
    if Metrics.in_buffer metrics <> Count_multiset.size bag then
      invalid_arg (name ^ ": metrics out of sync with buffer");
    if Count_multiset.size bag > buffer then
      invalid_arg (name ^ ": buffer overflow")
  in
  {
    Instance.name;
    arrive;
    arrive_dv;
    arrive_batch = None;
    transmit;
    end_slot;
    flush;
    occupancy = (fun () -> Count_multiset.size bag);
    metrics;
    ports = None;
    check;
  }

let value_instance ?(name = "OPT") ?cores ?events config =
  let cores =
    match cores with
    | Some c -> c
    | None -> Value_config.n config * config.Value_config.speedup
  in
  if cores < 1 then invalid_arg "Opt_ref.value_instance: cores must be >= 1";
  let buffer = config.Value_config.buffer in
  let bag = Count_multiset.create ~k:(Value_config.k config) in
  let metrics = Metrics.create () in
  let slot = ref 0 in
  let src = match events with Some f -> Flight.intern f name | None -> 0 in
  let arrive_dv ~dest ~value =
    Metrics.record_arrival metrics;
    (match events with
    | None -> ()
    | Some f -> Flight.arrival f ~slot:!slot ~src ~dest);
    if Count_multiset.size bag < buffer then begin
      Count_multiset.add bag value;
      Metrics.record_accept metrics;
      (match events with
      | None -> ()
      | Some f -> Flight.accept f ~slot:!slot ~src ~dest)
    end
    else begin
      match Count_multiset.min_key bag with
      | Some worst when worst < value ->
        Count_multiset.remove bag worst;
        Count_multiset.add bag value;
        Metrics.record_push_out metrics;
        (match events with
        | None -> ()
        | Some f ->
          Flight.push_out f ~slot:!slot ~src ~victim:worst ~dest ~lost:worst);
        Metrics.record_accept metrics;
        (match events with
        | None -> ()
        | Some f -> Flight.accept f ~slot:!slot ~src ~dest)
      | Some _ | None ->
        Metrics.record_drop metrics;
        (match events with
        | None -> ()
        | Some f -> Flight.drop f ~slot:!slot ~src ~dest ~value)
    end
  in
  let arrive (a : Arrival.t) = arrive_dv ~dest:a.dest ~value:a.value in
  let transmit () =
    let count = min cores (Count_multiset.size bag) in
    let value = Count_multiset.remove_largest bag ~budget:cores in
    Metrics.record_transmissions metrics ~count ~value;
    if count > 0 then
      match events with
      | None -> ()
      | Some f ->
        Flight.transmit_bulk f ~slot:!slot ~src ~dest:(-1) ~count ~value
  in
  let end_slot () =
    let occupancy = Count_multiset.size bag in
    Metrics.record_occupancy metrics occupancy;
    (match events with
    | None -> ()
    | Some f -> Flight.slot_end f ~slot:!slot ~src ~occupancy);
    incr slot
  in
  let flush () =
    let count = Count_multiset.size bag in
    Metrics.record_flush metrics count;
    (match events with
    | None -> ()
    | Some f -> Flight.flush f ~slot:!slot ~src ~count);
    Count_multiset.clear bag;
    Metrics.check_conservation metrics
  in
  let check () =
    Metrics.check_conservation metrics;
    if Metrics.in_buffer metrics <> Count_multiset.size bag then
      invalid_arg (name ^ ": metrics out of sync with buffer");
    if Count_multiset.size bag > buffer then
      invalid_arg (name ^ ": buffer overflow")
  in
  {
    Instance.name;
    arrive;
    arrive_dv;
    arrive_batch = None;
    transmit;
    end_slot;
    flush;
    occupancy = (fun () -> Count_multiset.size bag);
    metrics;
    ports = None;
    check;
  }
