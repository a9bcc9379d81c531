module Event = Smbm_obs.Event
module Metrics = Smbm_sim.Metrics

exception
  Divergent of { src : string; lineno : int; slot : int; reason : string }

type status =
  | Verified of { slots : int; checks : int }
  | Unverifiable of { evicted : int; oldest_slot : int }

type t = {
  src : string;
  metrics : Metrics.t;
  events : int;
  slots : int;
  final_fill : int;
  per_port : int array;
  ports_valid : bool;
  status : status;
}

let replay (s : Trace_file.source) =
  let verify = s.evicted = 0 in
  let metrics = Metrics.create () in
  let fill = ref 0 in
  let slots = ref 0 in
  let checks = ref 0 in
  let events = ref 0 in
  let ports = ref [||] in
  let ports_valid = ref true in
  let port_add idx delta =
    if !ports_valid then
      if idx < 0 then ports_valid := false
      else begin
        if idx >= Array.length !ports then begin
          let grown = Array.make (max (idx + 1) (2 * Array.length !ports)) 0 in
          Array.blit !ports 0 grown 0 (Array.length !ports);
          ports := grown
        end;
        !ports.(idx) <- !ports.(idx) + delta;
        (* A queue losing a packet it never held means the index is not a
           port (bag-key victims of the single-PQ reference): the per-port
           projection is meaningless for this stream, the scalar fill and
           all counters remain exact. *)
        if !ports.(idx) < 0 then ports_valid := false
      end
  in
  let diverge lineno slot fmt =
    Printf.ksprintf
      (fun reason -> raise (Divergent { src = s.src; lineno; slot; reason }))
      fmt
  in
  List.iter
    (fun { Trace_file.lineno; event = ev } ->
      incr events;
      let slot = ev.Event.slot in
      match ev.Event.kind with
      | Event.Arrival _ -> Metrics.record_arrival metrics
      | Event.Accept { dest } ->
        Metrics.record_accept metrics;
        incr fill;
        port_add dest 1
      | Event.Push_out { victim; dest = _; lost = _ } ->
        Metrics.record_push_out metrics;
        decr fill;
        port_add victim (-1)
      | Event.Drop _ -> Metrics.record_drop metrics
      | Event.Transmit { dest; value; latency } ->
        Metrics.record_transmit metrics ~value ~latency;
        decr fill;
        port_add dest (-1)
      | Event.Transmit_bulk { dest; count; value } ->
        Metrics.record_transmissions metrics ~count ~value;
        fill := !fill - count;
        if dest < 0 then ports_valid := false else port_add dest (-count)
      | Event.Flush { count } ->
        if verify && count <> !fill then
          diverge lineno slot "flush of %d packets but reconstructed fill is %d"
            count !fill;
        Metrics.record_flush metrics count;
        fill := 0;
        Array.fill !ports 0 (Array.length !ports) 0
      | Event.Slot_end { occupancy } ->
        Metrics.record_occupancy metrics occupancy;
        incr slots;
        if verify then begin
          if occupancy <> !fill then
            diverge lineno slot
              "slot_end occupancy %d but reconstructed fill is %d" occupancy
              !fill;
          (match Metrics.check_conservation metrics with
          | () -> ()
          | exception Invalid_argument msg ->
            diverge lineno slot "conservation violated: %s" msg);
          if Metrics.in_buffer metrics <> !fill then
            diverge lineno slot
              "counters imply %d packets in buffer but reconstructed fill \
               is %d"
              (Metrics.in_buffer metrics)
              !fill;
          incr checks
        end
      | Event.Reconfig _ | Event.Health _ ->
        (* Annotations: a slot-boundary reconfiguration drops no buffered
           packet by contract, and a health transition reports observer
           state — neither touches a counter or the fill. *)
        ()
      | Event.Truncated _ -> ())
    s.lines;
  {
    src = s.src;
    metrics;
    events = !events;
    slots = !slots;
    final_fill = !fill;
    per_port = !ports;
    ports_valid = !ports_valid;
    status =
      (if verify then Verified { slots = !slots; checks = !checks }
       else Unverifiable { evicted = s.evicted; oldest_slot = s.oldest_slot });
  }

let replay_all (file : Trace_file.t) =
  List.map
    (fun (s : Trace_file.source) ->
      ( s.Trace_file.src,
        match replay s with
        | r -> Ok r
        | exception (Divergent _ as e) -> Error e ))
    file.Trace_file.sources

let pp_status ppf = function
  | Verified { slots; checks } ->
    Format.fprintf ppf "verified (%d slots, %d certificates)" slots checks
  | Unverifiable { evicted; oldest_slot } ->
    Format.fprintf ppf
      "unverifiable (ring evicted %d events; slots < %d unknown)" evicted
      oldest_slot
