module Json = Smbm_obs.Json

type meta = {
  reason : string;
  detail : string;
  slot : int;
  model : string;
  src : string;
  policy : string;
  buffer : int;
  evicted : int;
  events : int;
  counters : (string * int) list;
  ports : int array;
  health : (string * bool) list;
}

let version = 1

let trace_path base = base ^ ".trace.bin"
let meta_path base = base ^ ".meta.jsonl"

(* Accept the base or either file path. *)
let base_of path =
  let strip suffix =
    let lp = String.length path and ls = String.length suffix in
    if lp > ls && String.sub path (lp - ls) ls = suffix then
      Some (String.sub path 0 (lp - ls))
    else None
  in
  match strip ".trace.bin" with
  | Some b -> b
  | None -> ( match strip ".meta.jsonl" with Some b -> b | None -> path)

let meta_lines m =
  let header =
    Json.obj
      [
        ("postmortem", Json.Int version);
        ("reason", Json.Str m.reason);
        ("detail", Json.Str m.detail);
        ("slot", Json.Int m.slot);
        ("model", Json.Str m.model);
        ("src", Json.Str m.src);
        ("policy", Json.Str m.policy);
        ("buffer", Json.Int m.buffer);
        ("evicted", Json.Int m.evicted);
        ("events", Json.Int m.events);
      ]
  in
  let counters =
    List.map
      (fun (k, v) -> Json.obj [ ("counter", Json.Str k); ("value", Json.Int v) ])
      m.counters
  in
  let ports =
    List.mapi
      (fun i occ -> Json.obj [ ("port", Json.Int i); ("occupancy", Json.Int occ) ])
      (Array.to_list m.ports)
  in
  let health =
    List.map
      (fun (rule, tripped) ->
        Json.obj [ ("rule", Json.Str rule); ("tripped", Json.Bool tripped) ])
      m.health
  in
  (header :: counters) @ ports @ health

let write ~base meta events =
  let module Sink = Smbm_obs.Sink in
  match Trace_file.write ~format:`Binary (trace_path base) events with
  | Error msg -> Error msg
  | Ok () -> (
    match Sink.open_file (meta_path base) with
    | Error e -> Error (Sink.error_to_string e)
    | Ok sink ->
      List.iter (Sink.line sink) (meta_lines meta);
      Result.map_error Sink.error_to_string (Sink.close_result sink))

let parse_meta path =
  match Json.read_lines path with
  | Error msg -> Error msg
  | Ok lines ->
    let parse lineno line =
      match Json.parse_flat line with
      | Ok fields -> Ok fields
      | Error msg -> Error (Printf.sprintf "%s:%d: %s" path lineno msg)
    in
    let int fields k =
      match List.assoc_opt k fields with
      | Some (Json.Int i) -> Some i
      | _ -> None
    in
    let str fields k =
      match List.assoc_opt k fields with
      | Some (Json.Str s) -> Some s
      | _ -> None
    in
    let ( let* ) = Result.bind in
    match lines with
    | [] -> Error (path ^ ": empty postmortem meta")
    | header :: rest ->
      let* h = parse 1 header in
      let req name v =
        match v with
        | Some v -> Ok v
        | None ->
          Error (Printf.sprintf "%s: header missing field %S" path name)
      in
      let* v = req "postmortem" (int h "postmortem") in
      let* () =
        if v = version then Ok ()
        else Error (Printf.sprintf "%s: unknown postmortem version %d" path v)
      in
      let* reason = req "reason" (str h "reason") in
      let* detail = req "detail" (str h "detail") in
      let* slot = req "slot" (int h "slot") in
      let* model = req "model" (str h "model") in
      let* src = req "src" (str h "src") in
      let* policy = req "policy" (str h "policy") in
      let* buffer = req "buffer" (int h "buffer") in
      let* evicted = req "evicted" (int h "evicted") in
      let* events = req "events" (int h "events") in
      let counters = ref [] and ports = ref [] and health = ref [] in
      let* () =
        List.fold_left
          (fun acc (lineno, line) ->
            let* () = acc in
            let* fields = parse lineno line in
            match
              ( List.assoc_opt "counter" fields,
                List.assoc_opt "port" fields,
                List.assoc_opt "rule" fields )
            with
            | Some (Json.Str k), None, None -> (
              match int fields "value" with
              | Some v ->
                counters := (k, v) :: !counters;
                Ok ()
              | None ->
                Error (Printf.sprintf "%s:%d: counter without value" path lineno))
            | None, Some (Json.Int p), None -> (
              match int fields "occupancy" with
              | Some occ ->
                ports := (p, occ) :: !ports;
                Ok ()
              | None ->
                Error (Printf.sprintf "%s:%d: port without occupancy" path lineno))
            | None, None, Some (Json.Str rule) -> (
              match List.assoc_opt "tripped" fields with
              | Some (Json.Bool b) ->
                health := (rule, b) :: !health;
                Ok ()
              | _ ->
                Error (Printf.sprintf "%s:%d: rule without tripped" path lineno))
            | _ ->
              Error (Printf.sprintf "%s:%d: unrecognized meta line" path lineno))
          (Ok ())
          (List.mapi (fun i l -> (i + 2, l)) rest)
      in
      let ports_list = List.rev !ports in
      let n_ports =
        List.fold_left (fun m (p, _) -> max m (p + 1)) 0 ports_list
      in
      let port_arr = Array.make n_ports 0 in
      List.iter (fun (p, occ) -> port_arr.(p) <- occ) ports_list;
      Ok
        {
          reason;
          detail;
          slot;
          model;
          src;
          policy;
          buffer;
          evicted;
          events;
          counters = List.rev !counters;
          ports = port_arr;
          health = List.rev !health;
        }

let load path =
  let base = base_of path in
  match parse_meta (meta_path base) with
  | Error msg -> Error msg
  | Ok meta -> (
    match Trace_file.load (trace_path base) with
    | Error msg -> Error msg
    | Ok trace -> Ok (meta, trace))

type verdict =
  | Certified of { slots : int; events : int; checked : int }
      (** complete window: replayed counters match the snapshot exactly *)
  | Window of { evicted : int; oldest_slot : int }
      (** truncated window: replayed, but counters cover only the tail *)

let counter meta name =
  match List.assoc_opt name meta.counters with Some v -> v | None -> 0

let certify meta trace =
  match Trace_file.find trace meta.src with
  | Error msg -> Error msg
  | Ok source -> (
    match Replay.replay source with
    | exception Replay.Divergent { lineno; slot; reason; _ } ->
      Error
        (Printf.sprintf "replay divergent at event %d (slot %d): %s" lineno
           slot reason)
    | r -> (
      match r.Replay.status with
      | Replay.Unverifiable { evicted; oldest_slot } ->
        Ok (Window { evicted; oldest_slot })
      | Replay.Verified { slots; _ } ->
        let m = r.Replay.metrics in
        let module M = Smbm_sim.Metrics in
        let pairs =
          [
            ("arrivals", M.arrivals m);
            ("accepted", M.accepted m);
            ("dropped", M.dropped m);
            ("pushed_out", M.pushed_out m);
            ("transmitted", M.transmitted m);
            ("transmitted_value", M.transmitted_value m);
            ("flushed", M.flushed m);
            ("in_buffer", M.in_buffer m);
          ]
        in
        let mismatches =
          List.filter_map
            (fun (name, replayed) ->
              let snap = counter meta name in
              if snap <> replayed then
                Some (Printf.sprintf "%s: replay %d vs snapshot %d" name
                        replayed snap)
              else None)
            pairs
        in
        let port_mismatches =
          (* The replay's array grows by doubling, so it may trail zeros
             past the snapshot's port count; a port absent on either side
             holds nothing. *)
          if not r.Replay.ports_valid then []
          else
            let at (a : int array) i = if i < Array.length a then a.(i) else 0 in
            let n = max (Array.length meta.ports) (Array.length r.Replay.per_port) in
            List.filter_map
              (fun i ->
                let replayed = at r.Replay.per_port i
                and snap = at meta.ports i in
                if snap <> replayed then
                  Some
                    (Printf.sprintf "port %d: replay %d vs snapshot %d" i
                       replayed snap)
                else None)
              (List.init n Fun.id)
        in
        match mismatches @ port_mismatches with
        | [] ->
          Ok
            (Certified
               {
                 slots;
                 events = r.Replay.events;
                 checked = List.length pairs + Array.length meta.ports;
               })
        | ms -> Error (String.concat "; " ms)))

let pp_verdict ppf = function
  | Certified { slots; events; checked } ->
    Format.fprintf ppf
      "certified: %d events over %d slots replayed; %d counters match the \
       snapshot"
      events slots checked
  | Window { evicted; oldest_slot } ->
    Format.fprintf ppf
      "window only: ring evicted %d events (state unknown before slot %d); \
       replayed without certification"
      evicted oldest_slot

let pp_meta ppf m =
  Format.fprintf ppf "reason: %s (%s)@," m.reason m.detail;
  Format.fprintf ppf "at slot %d, model %s, src %s@," m.slot m.model m.src;
  Format.fprintf ppf "config: policy %s, buffer %d@," m.policy m.buffer;
  Format.fprintf ppf "flight window: %d events, %d evicted@," m.events
    m.evicted;
  Format.fprintf ppf "counters:";
  List.iter (fun (k, v) -> Format.fprintf ppf " %s=%d" k v) m.counters;
  Format.fprintf ppf "@,";
  if Array.length m.ports > 0 then begin
    Format.fprintf ppf "port occupancy:";
    Array.iteri (fun i occ -> Format.fprintf ppf " %d:%d" i occ) m.ports;
    Format.fprintf ppf "@,"
  end;
  if m.health <> [] then begin
    Format.fprintf ppf "health:";
    List.iter
      (fun (rule, tripped) ->
        Format.fprintf ppf " %s=%s" rule (if tripped then "tripped" else "ok"))
      m.health;
    Format.fprintf ppf "@,"
  end
