open Smbm_core
module Flight = Smbm_obs.Flight
module Registry = Smbm_obs.Registry

module type SWITCH = sig
  type t
  type config

  val create : config -> t
  val unit_priced : config -> bool
  val n : t -> int
  val is_full : t -> bool
  val accept : t -> dest:int -> value:int -> unit
  val push_out : t -> victim:int -> int

  val transmit_phase :
    t -> on_transmit:(dest:int -> value:int -> arrival:int -> unit) -> int

  val occupancy : t -> int
  val advance_slot : t -> unit
  val flush : t -> int
  val check_invariants : t -> unit
  val buffer : t -> int
  val set_buffer : t -> int -> unit
  val queue_length : t -> int -> int
end

module type S = sig
  module Switch : SWITCH

  val create :
    ?name:string ->
    ?events:Flight.t ->
    ?distributions:bool ->
    Switch.config ->
    Switch.t Policy.t ->
    Instance.t * Switch.t

  val instance :
    ?name:string ->
    ?events:Flight.t ->
    ?distributions:bool ->
    Switch.config ->
    Switch.t Policy.t ->
    Instance.t

  val create_controlled :
    ?name:string ->
    ?events:Flight.t ->
    Switch.config ->
    Switch.t Policy.t ref ->
    Instance.t * Switch.t
end

(* A push-out decision is its victim's index (>= 0); read once here so
   the arrival path tests an int instead of calling into [Decision]. *)
let drop = (Decision.drop :> int)

module Make (Switch : SWITCH) = struct
  module Switch = Switch

  let make ?name ?events ?distributions config
      (policy_ref : Switch.t Policy.t ref) =
    let name = Option.value name ~default:!policy_ref.name in
    let sw = Switch.create config in
    let metrics = Metrics.create ?distributions () in
    let distributions = Option.value distributions ~default:true in
    (* Recording takes only immediate ints (the source is interned once
       here), so an attached ring costs column writes, not allocation. *)
    let src = match events with Some f -> Flight.intern f name | None -> 0 in
    (* Read once here, not per arrival: a unit-priced configuration stores
       every packet at value 1, so value traffic replayed into it yields
       the same decisions, counters and events as unit traffic. *)
    let unit_priced = Switch.unit_priced config in
    (* The slot path counts into [tally], settled into [metrics] once per
       batch of arrivals and once per transmission phase; only latency and
       the port tallies are recorded per packet, and only with
       [distributions].  [now] is the engine's own copy of the switch's
       clock, advanced beside [Switch.advance_slot], that stamps events and
       latencies. *)
    let tally = Metrics.Tally.create () in
    let now = ref 0 in
    let settle () = Metrics.settle metrics tally in
    let arrive ~dest ~value =
      let value = if unit_priced then 1 else value in
      tally.arrivals <- tally.arrivals + 1;
      (match events with
      | None -> ()
      | Some f -> Flight.arrival f ~slot:!now ~src ~dest);
      let d = (!policy_ref.admit sw ~dest ~value :> int) in
      (* A push-out makes room, then the arrival is accepted as usual. *)
      if d >= 0 then begin
        if not (Switch.is_full sw) then
          invalid_arg
            (name ^ ": push-out decision while the buffer has free space");
        let lost = Switch.push_out sw ~victim:d in
        tally.pushed_out <- tally.pushed_out + 1;
        match events with
        | None -> ()
        | Some f -> Flight.push_out f ~slot:!now ~src ~victim:d ~dest ~lost
      end;
      if d = drop then begin
        tally.dropped <- tally.dropped + 1;
        match events with
        | None -> ()
        | Some f -> Flight.drop f ~slot:!now ~src ~dest ~value
      end
      else begin
        Switch.accept sw ~dest ~value;
        tally.accepted <- tally.accepted + 1;
        match events with
        | None -> ()
        | Some f -> Flight.accept f ~slot:!now ~src ~dest
      end
    in
    (* A raising policy or switch still leaves settled counters: the
       arrival it raised on counted, no admission for it. *)
    let arrive_dv, arrive_batch = Instance.arrival_paths ~settle arrive in
    (* The hook is chosen here, once: a counters-only instance's hook only
       counts, so its packets pay for no histogram sample and no port
       update. *)
    let ports =
      if distributions then Some (Port_stats.create ~n:(Switch.n sw)) else None
    in
    let on_transmit =
      match ports with
      | Some ports ->
        let latency_h = Metrics.latency_histogram metrics in
        fun ~dest ~value ~arrival ->
          let latency = !now - arrival in
          tally.transmitted <- tally.transmitted + 1;
          tally.transmitted_value <- tally.transmitted_value + value;
          Registry.observe_int latency_h latency;
          Port_stats.record ports ~port:dest ~value;
          (match events with
          | None -> ()
          | Some f -> Flight.transmit f ~slot:!now ~src ~dest ~value ~latency)
      | None ->
        fun ~dest ~value ~arrival ->
          tally.transmitted <- tally.transmitted + 1;
          tally.transmitted_value <- tally.transmitted_value + value;
          (match events with
          | None -> ()
          | Some f ->
            Flight.transmit f ~slot:!now ~src ~dest ~value
              ~latency:(!now - arrival))
    in
    let transmit () =
      match Switch.transmit_phase sw ~on_transmit with
      | _ -> settle ()
      | exception e ->
        settle ();
        raise e
    in
    let end_slot () =
      let occupancy = Switch.occupancy sw in
      if distributions then Metrics.record_occupancy metrics occupancy;
      (match events with
      | None -> ()
      | Some f -> Flight.slot_end f ~slot:!now ~src ~occupancy);
      Switch.advance_slot sw;
      incr now
    in
    let flush () =
      let count = Switch.flush sw in
      Metrics.record_flush metrics count;
      (match events with
      | None -> ()
      | Some f -> Flight.flush f ~slot:!now ~src ~count);
      Metrics.check_conservation metrics
    in
    let check () =
      Switch.check_invariants sw;
      Metrics.check_conservation metrics;
      if Metrics.in_buffer metrics <> Switch.occupancy sw then
        invalid_arg (name ^ ": metrics in-buffer count out of sync with switch")
    in
    let inst : Instance.t =
      {
        name;
        arrive_dv;
        arrive_batch = Some arrive_batch;
        transmit;
        end_slot;
        flush;
        occupancy = (fun () -> Switch.occupancy sw);
        metrics;
        ports;
        check;
      }
    in
    (inst, sw)

  let create_controlled ?name ?events config policy_ref =
    make ?name ?events config policy_ref

  let create ?name ?events ?distributions config policy =
    make ?name ?events ?distributions config (ref policy)

  let instance ?name ?events ?distributions config policy =
    fst (create ?name ?events ?distributions config policy)
end

module Proc = Make (struct
  include Proc_switch

  type config = Proc_config.t

  let unit_priced = Proc_config.unit_priced
end)

module Value = Make (struct
  include Value_switch

  type config = Value_config.t

  let unit_priced _ = false
end)
