module Event = Smbm_obs.Event

type line = { lineno : int; event : Event.t }

type source = {
  src : string;
  lines : line list;
  evicted : int;
  oldest_slot : int;
}

type t = {
  path : string;
  sources : source list;
  truncations : (string * int * int) list;
}

let scope_covers ~scope src =
  scope = "" || src = scope
  ||
  let ls = String.length scope in
  String.length src > ls
  && String.sub src 0 ls = scope
  && src.[ls] = '/'

(* ----- binary codec (doc/trace-format.md) -----

   magic (8 bytes, version in the last byte), then an interned string
   table (every [src] plus the payload strings of reconfig/health events),
   then the events in file order: one kind-tag byte, slot and string ids
   as unsigned LEB128 varints, payload ints as zigzag varints in the JSONL
   field order.  The format is self-contained and append-free: readers get
   the whole table up front, so decoding is a single forward pass. *)

let magic = "SMBMTRC\x01"

let add_uvarint buf n =
  if n < 0 then invalid_arg "Trace_file: negative unsigned varint";
  let rec go n =
    if n < 0x80 then Buffer.add_char buf (Char.chr n)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (n land 0x7F)));
      go (n lsr 7)
    end
  in
  go n

let zigzag n = (n lsl 1) lxor (n asr (Sys.int_size - 1))
let unzigzag n = (n lsr 1) lxor (-(n land 1))

let add_varint buf n = add_uvarint buf (zigzag n)

let to_binary events =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  (* Intern every string the events carry, in first-appearance order. *)
  let ids = Hashtbl.create 16 in
  let names = ref [] in
  let n_names = ref 0 in
  let intern s =
    match Hashtbl.find_opt ids s with
    | Some id -> id
    | None ->
      let id = !n_names in
      Hashtbl.add ids s id;
      names := s :: !names;
      incr n_names;
      id
  in
  let names_only =
    {
      Event.put_int = ignore;
      put_name = (fun s -> ignore (intern s));
      put_flag = ignore;
    }
  in
  List.iter
    (fun (e : Event.t) ->
      ignore (intern e.src);
      Event.write_payload names_only e.kind)
    events;
  add_uvarint buf !n_names;
  List.iter
    (fun s ->
      add_uvarint buf (String.length s);
      Buffer.add_string buf s)
    (List.rev !names);
  add_uvarint buf (List.length events);
  let payload =
    {
      Event.put_int = add_varint buf;
      put_name = (fun s -> add_uvarint buf (intern s));
      put_flag = (fun b -> Buffer.add_char buf (if b then '\x01' else '\x00'));
    }
  in
  List.iter
    (fun (e : Event.t) ->
      Buffer.add_char buf (Char.chr (Event.tag e.kind));
      add_uvarint buf e.slot;
      add_uvarint buf (intern e.src);
      Event.write_payload payload e.kind)
    events;
  Buffer.contents buf

(* JSONL streams one line per event through a sink, so a million-event
   panel dump never becomes one string; binary needs its string table up
   front, so it is encoded whole.  Both report failures as the sink does. *)
let write ~format path events =
  let module Sink = Smbm_obs.Sink in
  let fail op message =
    Error (Sink.error_to_string { Sink.path; op; message })
  in
  match format with
  | `Jsonl -> (
    match Sink.open_file path with
    | Error e -> Error (Sink.error_to_string e)
    | Ok sink ->
      List.iter (Sink.event sink) events;
      Result.map_error Sink.error_to_string (Sink.close_result sink))
  | `Binary -> (
    match open_out_bin path with
    | exception Sys_error msg -> fail `Open msg
    | oc -> (
      match output_string oc (to_binary events) with
      | exception Sys_error msg ->
        close_out_noerr oc;
        fail `Write msg
      | () -> (
        match close_out oc with
        | () -> Ok ()
        | exception Sys_error msg -> fail `Close msg)))

exception Corrupt of string

let of_binary ~path data =
  let n = String.length data in
  let pos = ref (String.length magic) in
  let corrupt fmt =
    Printf.ksprintf
      (fun msg ->
        raise (Corrupt (Printf.sprintf "%s: byte %d: %s" path !pos msg)))
      fmt
  in
  let byte () =
    if !pos >= n then corrupt "truncated file";
    let b = Char.code data.[!pos] in
    incr pos;
    b
  in
  let uvarint () =
    let rec go shift acc =
      if shift > Sys.int_size - 7 then corrupt "varint overflow";
      let b = byte () in
      let acc = acc lor ((b land 0x7F) lsl shift) in
      if b land 0x80 = 0 then acc else go (shift + 7) acc
    in
    go 0 0
  in
  let varint () = unzigzag (uvarint ()) in
  let n_names = uvarint () in
  let names =
    Array.init n_names (fun _ ->
        let len = uvarint () in
        if !pos + len > n then corrupt "truncated string table";
        let s = String.sub data !pos len in
        pos := !pos + len;
        s)
  in
  let name id =
    if id < 0 || id >= n_names then corrupt "string id %d out of range" id
    else names.(id)
  in
  let n_events = uvarint () in
  (* Every event is at least three bytes (tag, slot, src), so a count
     beyond the remaining bytes is corruption, not a huge allocation. *)
  if n_events > n - !pos then corrupt "event count %d beyond file" n_events;
  let payload =
    {
      Event.int = varint;
      name = (fun () -> name (uvarint ()));
      flag =
        (fun () ->
          match byte () with
          | 0 -> false
          | 1 -> true
          | b -> corrupt "bad health state byte %d" b);
    }
  in
  let decode_event () =
    let tag = byte () in
    let slot = uvarint () in
    let src = name (uvarint ()) in
    match Event.of_tag tag payload with
    | Some kind -> Event.make ~src ~slot kind
    | None -> corrupt "unknown event tag %d" tag
  in
  let events = ref [] in
  for _ = 1 to n_events do
    events := decode_event () :: !events
  done;
  if !pos <> n then corrupt "trailing garbage after %d events" n_events;
  List.rev !events

let read_file path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
    let r =
      match really_input_string ic (in_channel_length ic) with
      | data -> Ok data
      | exception Sys_error msg -> Error msg
      | exception End_of_file -> Error (path ^ ": unreadable")
    in
    close_in_noerr ic;
    r

let data_is_binary data =
  String.length data >= String.length magic
  && String.sub data 0 (String.length magic) = magic

let is_binary path =
  match read_file path with
  | Error _ -> false
  | Ok data -> data_is_binary data

(* Iterate events from either format, [lineno] being the JSONL line number
   or the 1-based event index.  Stops at the first malformed event. *)
let iter_events path ~f =
  match read_file path with
  | Error msg -> Error msg
  | Ok data ->
    if data_is_binary data then (
      match of_binary ~path data with
      | exception Corrupt msg -> Error msg
      | events ->
        Ok (List.iteri (fun i e -> f ~lineno:(i + 1) e) events))
    else begin
      let lineno = ref 0 in
      let error = ref None in
      List.iter
        (fun raw ->
          if !error = None then begin
            incr lineno;
            if String.trim raw <> "" then
              match Event.of_json raw with
              | Error msg ->
                error := Some (Printf.sprintf "%s:%d: %s" path !lineno msg)
              | Ok ev -> f ~lineno:!lineno ev
          end)
        (String.split_on_char '\n' data);
      match !error with Some msg -> Error msg | None -> Ok ()
    end

let read_events path =
  let acc = ref [] in
  match iter_events path ~f:(fun ~lineno e -> acc := (lineno, e) :: !acc) with
  | Error msg -> Error msg
  | Ok () -> Ok (List.rev !acc)

let load path =
  let buckets : (string, line list ref) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  let truncations = ref [] in
  let on_event ~lineno (ev : Event.t) =
    match ev.Event.kind with
    | Event.Truncated { evicted } ->
      truncations := (ev.Event.src, evicted, ev.Event.slot) :: !truncations
    | _ ->
      let bucket =
        match Hashtbl.find_opt buckets ev.Event.src with
        | Some b -> b
        | None ->
          let b = ref [] in
          Hashtbl.add buckets ev.Event.src b;
          order := ev.Event.src :: !order;
          b
      in
      bucket := { lineno; event = ev } :: !bucket
  in
  match iter_events path ~f:on_event with
  | Error msg -> Error msg
  | Ok () ->
    let truncations = List.rev !truncations in
    let sources =
      List.rev_map
        (fun src ->
          let lines = List.rev !(Hashtbl.find buckets src) in
          (* Several scopes can cover one source (e.g. "" and "x=8");
             their budgets add up, and the tightest oldest-surviving slot
             wins. *)
          let evicted, oldest_slot =
            List.fold_left
              (fun (e, o) (scope, evicted, slot) ->
                if scope_covers ~scope src then (e + evicted, max o slot)
                else (e, o))
              (0, 0) truncations
          in
          { src; lines; evicted; oldest_slot })
        !order
    in
    Ok { path; sources; truncations }

let source_names t = List.map (fun s -> s.src) t.sources

let find t name =
  match List.find_opt (fun s -> s.src = name) t.sources with
  | Some s -> Ok s
  | None -> (
    let suffix_matches =
      List.filter
        (fun s ->
          let ls = String.length s.src and ln = String.length name in
          ls > ln + 1
          && String.sub s.src (ls - ln) ln = name
          && s.src.[ls - ln - 1] = '/')
        t.sources
    in
    match suffix_matches with
    | [ s ] -> Ok s
    | [] ->
      Error
        (Printf.sprintf "no source %S in %s (available: %s)" name t.path
           (String.concat ", " (source_names t)))
    | many ->
      Error
        (Printf.sprintf "source %S is ambiguous in %s (matches: %s)" name
           t.path
           (String.concat ", " (List.map (fun s -> s.src) many))))

type audit = {
  events : int;
  kinds : (string * int) list;
  scopes : (string * int * int) list;
  deficits : (string * int) list;
}

let audit ?(allow_truncation = false) t =
  let ( let* ) = Result.bind in
  let fail fmt = Printf.ksprintf (fun msg -> Error msg) fmt in
  (* Slots never go backwards within a source; report the earliest
     offending line of the file. *)
  let backwards =
    List.filter_map
      (fun s ->
        let rec go last = function
          | [] -> None
          | { lineno; event } :: rest ->
            if event.Event.slot < last then
              Some (lineno, event.Event.slot, s.src, last)
            else go event.Event.slot rest
        in
        go 0 s.lines)
      t.sources
  in
  let* () =
    match List.sort compare backwards with
    | (lineno, slot, src, last) :: _ ->
      fail "%s:%d: slot %d of %S goes backwards (last %d)" t.path lineno slot
        src last
    | [] -> Ok ()
  in
  (* Conservation per source.  In a stream whose oldest events were
     evicted, resolutions can outnumber arrivals (the arrival fell off the
     ring, its accept/drop survived) — never the reverse, since an arrival
     is always recorded before its resolution. *)
  let balances =
    List.sort compare
      (List.map
         (fun s ->
           let arrivals, resolutions =
             List.fold_left
               (fun (a, r) { event; _ } ->
                 match event.Event.kind with
                 | Event.Arrival _ -> (a + 1, r)
                 | Event.Accept _ | Event.Drop _ -> (a, r + 1)
                 | _ -> (a, r))
               (0, 0) s.lines
           in
           (s.src, arrivals, resolutions, s.evicted))
         t.sources)
  in
  let* () =
    match List.find_opt (fun (_, a, r, _) -> r < a) balances with
    | Some (src, a, r, _) ->
      fail
        "%s: source %S has %d arrivals but only %d resolutions — impossible \
         even under truncation (corrupted trace)"
        t.path src a r
    | None -> Ok ()
  in
  let deficits =
    List.filter_map
      (fun (src, a, r, budget) ->
        if r > a then Some (src, r - a, budget) else None)
      balances
  in
  let* () =
    match List.find_opt (fun (_, _, budget) -> budget = 0) deficits with
    | Some (src, deficit, _) when not allow_truncation ->
      fail
        "%s: source %S violates arrivals = accepted + dropped (missing %d \
         arrivals) with no truncation marker covering it; a truncated legacy \
         trace? (--allow-truncation)"
        t.path src deficit
    | _ -> Ok ()
  in
  (* One budget per scope: a ring drained while it runs (serve --trace) can
     declare several losses, each with its own marker.  The budgets must
     cover the observed imbalances. *)
  let scopes =
    List.rev
      (List.fold_left
         (fun acc (scope, evicted, oldest) ->
           if List.exists (fun (s, _, _) -> s = scope) acc then
             List.map
               (fun ((s, e, o) as entry) ->
                 if s = scope then (s, e + evicted, max o oldest) else entry)
               acc
           else (scope, evicted, oldest) :: acc)
         [] t.truncations)
  in
  let* () =
    let missing scope =
      List.fold_left
        (fun n (src, deficit, _) ->
          if scope_covers ~scope src then n + deficit else n)
        0 deficits
    in
    match List.find_opt (fun (scope, e, _) -> missing scope > e) scopes with
    | Some (scope, evicted, _) ->
      fail
        "%s: scope %S declares %d evicted events but its sources are missing \
         %d arrival resolutions (corrupted trace)"
        t.path scope evicted (missing scope)
    | None -> Ok ()
  in
  let kinds =
    let counts = Hashtbl.create 8 in
    let count name =
      Hashtbl.replace counts name
        (1 + Option.value (Hashtbl.find_opt counts name) ~default:0)
    in
    List.iter
      (fun s ->
        List.iter
          (fun { event; _ } -> count (Event.kind_name event.Event.kind))
          s.lines)
      t.sources;
    List.iter
      (fun (_, evicted, _) ->
        count (Event.kind_name (Event.Truncated { evicted })))
      t.truncations;
    List.sort compare (Hashtbl.fold (fun k n acc -> (k, n) :: acc) counts [])
  in
  Ok
    {
      events = List.fold_left (fun n (_, k) -> n + k) 0 kinds;
      kinds;
      scopes;
      deficits = List.map (fun (src, deficit, _) -> (src, deficit)) deficits;
    }
