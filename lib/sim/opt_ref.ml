open Smbm_prelude
open Smbm_core

module Flight = Smbm_obs.Flight

(* The reference has no per-port structure, so its events speak the bag's
   language: push-out victims are bag keys (residual work / value) and
   transmissions are per-slot [Transmit_bulk] events with dest = -1.  That is
   enough for Smbm_forensics to reconstruct and certify every aggregate
   counter, and for trace diffs against a policy trace of the same arrival
   instance. *)

(* What separates the two bags.  [Srpt]: keys are residual work, the
   largest is worst, a push-out loses one packet, and cycles go
   shortest-remaining-first.  [Top_values]: keys are values, the smallest
   is worst, a push-out loses the victim's value, and the [cores] most
   valuable packets leave each slot. *)
type rule = Srpt of Proc_config.t | Top_values

let bag_instance ~name ~cores ?events ~distributions ~buffer ~k rule =
  let bag = Count_multiset.create ~k in
  let metrics = Metrics.create ~distributions () in
  (* Admissions are counted into [tally] and settled once per batch, as
     the engines do. *)
  let tally = Metrics.Tally.create () in
  let slot = ref 0 in
  let src = match events with Some f -> Flight.intern f name | None -> 0 in
  let accept key ~dest =
    Count_multiset.add bag key;
    tally.accepted <- tally.accepted + 1;
    match events with
    | None -> ()
    | Some f -> Flight.accept f ~slot:!slot ~src ~dest
  in
  let arrive ~dest ~value =
    tally.arrivals <- tally.arrivals + 1;
    (match events with
    | None -> ()
    | Some f -> Flight.arrival f ~slot:!slot ~src ~dest);
    let key =
      match rule with
      | Srpt config -> Proc_config.work config dest
      | Top_values -> value
    in
    if Count_multiset.size bag < buffer then accept key ~dest
    else begin
      (* The bag is full, so non-empty: the worst key is a real key. *)
      let worst =
        match rule with
        | Srpt _ -> Count_multiset.max_key bag
        | Top_values -> Count_multiset.min_key bag
      in
      if (match rule with Srpt _ -> worst > key | Top_values -> worst < key)
      then begin
        Count_multiset.remove bag worst;
        tally.pushed_out <- tally.pushed_out + 1;
        (match events with
        | None -> ()
        | Some f ->
          let lost = match rule with Srpt _ -> 1 | Top_values -> worst in
          Flight.push_out f ~slot:!slot ~src ~victim:worst ~dest ~lost);
        accept key ~dest
      end
      else begin
        tally.dropped <- tally.dropped + 1;
        match events with
        | None -> ()
        | Some f ->
          let value = match rule with Srpt _ -> 1 | Top_values -> value in
          Flight.drop f ~slot:!slot ~src ~dest ~value
      end
    end
  in
  let arrive_dv, arrive_batch =
    Instance.arrival_paths ~settle:(fun () -> Metrics.settle metrics tally)
      arrive
  in
  let transmit () =
    (* SRPT spends the full per-slot cycle budget: cycles may stack on one
       packet within a slot, so the reference dominates real queues at any
       speedup (a queue can burn C cycles into successive packets). *)
    let count =
      match rule with
      | Srpt _ -> Count_multiset.serve_srpt bag ~budget:cores
      | Top_values -> min cores (Count_multiset.size bag)
    in
    let value =
      match rule with
      | Srpt _ -> count
      | Top_values -> Count_multiset.remove_largest bag ~budget:cores
    in
    Metrics.record_transmissions metrics ~count ~value;
    if count > 0 then
      match events with
      | None -> ()
      | Some f ->
        Flight.transmit_bulk f ~slot:!slot ~src ~dest:(-1) ~count ~value
  in
  let end_slot () =
    let occupancy = Count_multiset.size bag in
    if distributions then Metrics.record_occupancy metrics occupancy;
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
    arrive_dv;
    arrive_batch = Some arrive_batch;
    transmit;
    end_slot;
    flush;
    occupancy = (fun () -> Count_multiset.size bag);
    metrics;
    ports = None;
    check;
  }

let proc_instance ?(name = "OPT") ?events ?(distributions = true) config =
  let cores = Proc_config.n config * config.Proc_config.speedup in
  bag_instance ~name ~cores ?events ~distributions
    ~buffer:config.Proc_config.buffer ~k:(Proc_config.k config) (Srpt config)

let value_instance ?(name = "OPT") ?events ?(distributions = true) config =
  let cores = Value_config.n config * config.Value_config.speedup in
  bag_instance ~name ~cores ?events ~distributions
    ~buffer:config.Value_config.buffer ~k:(Value_config.k config) Top_values
