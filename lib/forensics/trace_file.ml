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
  line_count : int;
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

let write_binary path events =
  match open_out_bin path with
  | exception Sys_error msg -> Error msg
  | oc ->
    let r =
      match output_string oc (to_binary events) with
      | () -> Ok ()
      | exception Sys_error msg -> Error msg
    in
    (match close_out oc with
    | () -> r
    | exception Sys_error msg -> (
      match r with Ok () -> Error msg | Error _ -> r))

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
        List.iteri (fun i e -> f ~lineno:(i + 1) e) events;
        Ok (List.length events))
    else begin
      let lineno = ref 0 in
      let error = ref None in
      let lines = String.split_on_char '\n' data in
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
        lines;
      (* A trailing newline splits into a final empty chunk that is not a
         line; don't count it. *)
      let count =
        match List.rev lines with "" :: _ -> !lineno - 1 | _ -> !lineno
      in
      match !error with Some msg -> Error msg | None -> Ok count
    end

let read_events path =
  let acc = ref [] in
  match iter_events path ~f:(fun ~lineno e -> acc := (lineno, e) :: !acc) with
  | Error msg -> Error msg
  | Ok _ -> Ok (List.rev !acc)

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
  | Ok line_count ->
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
    Ok { path; line_count; sources; truncations }

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
