type kind =
  | Arrival of { dest : int }
  | Accept of { dest : int }
  | Push_out of { victim : int; dest : int; lost : int }
  | Drop of { dest : int; value : int }
  | Transmit of { dest : int; value : int; latency : int }
  | Transmit_bulk of { dest : int; count : int; value : int }
  | Flush of { count : int }
  | Slot_end of { occupancy : int }
  | Reconfig of { what : string; target : string }
  | Health of { rule : string; tripped : bool; reason : string }
  | Truncated of { evicted : int }

type t = { src : string; slot : int; kind : kind }

let make ~src ~slot kind = { src; slot; kind }

let kind_name = function
  | Arrival _ -> "arrival"
  | Accept _ -> "accept"
  | Push_out _ -> "push_out"
  | Drop _ -> "drop"
  | Transmit _ -> "transmit"
  | Transmit_bulk _ -> "transmit_bulk"
  | Flush _ -> "flush"
  | Slot_end _ -> "slot_end"
  | Reconfig _ -> "reconfig"
  | Health _ -> "health"
  | Truncated _ -> "truncated"

(* ----- binary layout (doc/trace-format.md) -----

   The one kind <-> tag table, plus each kind's payload fields in JSONL
   order.  The flight ring's columns and the binary trace codec both go
   through it, so the format is fixed in this one place. *)

let tag_arrival = 0
let tag_accept = 1
let tag_push_out = 2
let tag_drop = 3
let tag_transmit = 4
let tag_transmit_bulk = 5
let tag_flush = 6
let tag_slot_end = 7
let tag_reconfig = 8
let tag_health = 9
let tag_truncated = 10

let tag = function
  | Arrival _ -> tag_arrival
  | Accept _ -> tag_accept
  | Push_out _ -> tag_push_out
  | Drop _ -> tag_drop
  | Transmit _ -> tag_transmit
  | Transmit_bulk _ -> tag_transmit_bulk
  | Flush _ -> tag_flush
  | Slot_end _ -> tag_slot_end
  | Reconfig _ -> tag_reconfig
  | Health _ -> tag_health
  | Truncated _ -> tag_truncated

type reader = {
  int : unit -> int;
  name : unit -> string;
  flag : unit -> bool;
}

(* [let]-sequenced: the fields must be read in payload order. *)
let of_tag t r =
  if t = tag_arrival then Some (Arrival { dest = r.int () })
  else if t = tag_accept then Some (Accept { dest = r.int () })
  else if t = tag_push_out then
    let victim = r.int () in
    let dest = r.int () in
    let lost = r.int () in
    Some (Push_out { victim; dest; lost })
  else if t = tag_drop then
    let dest = r.int () in
    let value = r.int () in
    Some (Drop { dest; value })
  else if t = tag_transmit then
    let dest = r.int () in
    let value = r.int () in
    let latency = r.int () in
    Some (Transmit { dest; value; latency })
  else if t = tag_transmit_bulk then
    let dest = r.int () in
    let count = r.int () in
    let value = r.int () in
    Some (Transmit_bulk { dest; count; value })
  else if t = tag_flush then Some (Flush { count = r.int () })
  else if t = tag_slot_end then Some (Slot_end { occupancy = r.int () })
  else if t = tag_reconfig then
    let what = r.name () in
    let target = r.name () in
    Some (Reconfig { what; target })
  else if t = tag_health then
    let rule = r.name () in
    let tripped = r.flag () in
    let reason = r.name () in
    Some (Health { rule; tripped; reason })
  else if t = tag_truncated then Some (Truncated { evicted = r.int () })
  else None

type writer = {
  put_int : int -> unit;
  put_name : string -> unit;
  put_flag : bool -> unit;
}

let write_payload w = function
  | Arrival { dest } | Accept { dest } -> w.put_int dest
  | Push_out { victim; dest; lost } ->
    w.put_int victim;
    w.put_int dest;
    w.put_int lost
  | Drop { dest; value } ->
    w.put_int dest;
    w.put_int value
  | Transmit { dest; value; latency } ->
    w.put_int dest;
    w.put_int value;
    w.put_int latency
  | Transmit_bulk { dest; count; value } ->
    w.put_int dest;
    w.put_int count;
    w.put_int value
  | Flush { count } -> w.put_int count
  | Slot_end { occupancy } -> w.put_int occupancy
  | Reconfig { what; target } ->
    w.put_name what;
    w.put_name target
  | Health { rule; tripped; reason } ->
    w.put_name rule;
    w.put_flag tripped;
    w.put_name reason
  | Truncated { evicted } -> w.put_int evicted

let payload = function
  | Arrival { dest } | Accept { dest } -> [ ("dest", Json.Int dest) ]
  | Push_out { victim; dest; lost } ->
    [
      ("victim", Json.Int victim);
      ("dest", Json.Int dest);
      ("lost", Json.Int lost);
    ]
  | Drop { dest; value } ->
    [ ("dest", Json.Int dest); ("value", Json.Int value) ]
  | Transmit { dest; value; latency } ->
    [
      ("dest", Json.Int dest);
      ("value", Json.Int value);
      ("latency", Json.Int latency);
    ]
  | Transmit_bulk { dest; count; value } ->
    [
      ("dest", Json.Int dest);
      ("count", Json.Int count);
      ("value", Json.Int value);
    ]
  | Flush { count } -> [ ("count", Json.Int count) ]
  | Slot_end { occupancy } -> [ ("occupancy", Json.Int occupancy) ]
  | Reconfig { what; target } ->
    [ ("what", Json.Str what); ("to", Json.Str target) ]
  | Health { rule; tripped; reason } ->
    [
      ("rule", Json.Str rule);
      ("state", Json.Str (if tripped then "tripped" else "ok"));
      ("reason", Json.Str reason);
    ]
  | Truncated { evicted } -> [ ("evicted", Json.Int evicted) ]

let to_json t =
  Json.obj
    (("ev", Json.Str (kind_name t.kind))
    :: ("slot", Json.Int t.slot)
    :: ("src", Json.Str t.src)
    :: payload t.kind)

(* Field sets per kind, for strict validation. *)
let fields_of_ev = function
  | "arrival" | "accept" -> Some [ "dest" ]
  | "push_out" -> Some [ "victim"; "dest"; "lost" ]
  | "drop" -> Some [ "dest"; "value" ]
  | "transmit" -> Some [ "dest"; "value"; "latency" ]
  | "transmit_bulk" -> Some [ "dest"; "count"; "value" ]
  | "flush" -> Some [ "count" ]
  | "slot_end" -> Some [ "occupancy" ]
  | "reconfig" -> Some [ "what"; "to" ]
  | "health" -> Some [ "rule"; "state"; "reason" ]
  | "truncated" -> Some [ "evicted" ]
  | _ -> None

let of_json line =
  let ( let* ) = Result.bind in
  let* fields = Json.parse_flat line in
  let int k =
    match List.assoc_opt k fields with
    | Some (Json.Int i) -> Ok i
    | Some _ -> Error (Printf.sprintf "field %S: expected an integer" k)
    | None -> Error (Printf.sprintf "missing field %S" k)
  in
  let str k =
    match List.assoc_opt k fields with
    | Some (Json.Str s) -> Ok s
    | Some _ -> Error (Printf.sprintf "field %S: expected a string" k)
    | None -> Error (Printf.sprintf "missing field %S" k)
  in
  let* ev = str "ev" in
  let* expected_payload =
    match fields_of_ev ev with
    | Some fs -> Ok fs
    | None -> Error (Printf.sprintf "unknown event kind %S" ev)
  in
  let allowed = "ev" :: "slot" :: "src" :: expected_payload in
  let* () =
    List.fold_left
      (fun acc (k, _) ->
        let* () = acc in
        if List.mem k allowed then Ok ()
        else Error (Printf.sprintf "unexpected field %S for event %S" k ev))
      (Ok ()) fields
  in
  let* slot = int "slot" in
  let* () = if slot < 0 then Error "negative slot" else Ok () in
  let* src = str "src" in
  let* kind =
    match ev with
    | "arrival" ->
      let* dest = int "dest" in
      Ok (Arrival { dest })
    | "accept" ->
      let* dest = int "dest" in
      Ok (Accept { dest })
    | "push_out" ->
      let* victim = int "victim" in
      let* dest = int "dest" in
      let* lost = int "lost" in
      Ok (Push_out { victim; dest; lost })
    | "drop" ->
      let* dest = int "dest" in
      let* value = int "value" in
      Ok (Drop { dest; value })
    | "transmit" ->
      let* dest = int "dest" in
      let* value = int "value" in
      let* latency = int "latency" in
      Ok (Transmit { dest; value; latency })
    | "transmit_bulk" ->
      let* dest = int "dest" in
      let* count = int "count" in
      let* value = int "value" in
      Ok (Transmit_bulk { dest; count; value })
    | "flush" ->
      let* count = int "count" in
      Ok (Flush { count })
    | "slot_end" ->
      let* occupancy = int "occupancy" in
      Ok (Slot_end { occupancy })
    | "reconfig" ->
      let* what = str "what" in
      let* target = str "to" in
      Ok (Reconfig { what; target })
    | "health" ->
      let* rule = str "rule" in
      let* state = str "state" in
      let* reason = str "reason" in
      let* tripped =
        match state with
        | "tripped" -> Ok true
        | "ok" -> Ok false
        | s -> Error (Printf.sprintf "field \"state\": unknown value %S" s)
      in
      Ok (Health { rule; tripped; reason })
    | "truncated" ->
      let* evicted = int "evicted" in
      Ok (Truncated { evicted })
    | _ -> assert false (* fields_of_ev already rejected it *)
  in
  Ok { src; slot; kind }

let pp ppf t = Format.pp_print_string ppf (to_json t)
