open Smbm_prelude
open Smbm_core

module Compact = struct
  (* The columns are off-heap {!Int_col}s: a compact trace's payload lives
     outside the OCaml heap, so the GC never scans it and several domains
     can replay the same trace (or [pack]ed windows of one shared slab)
     concurrently without copies — compact traces are immutable after
     construction. *)
  type t = {
    offsets : Int_col.t;  (* length slots + 1; slot i spans [offsets.(i), offsets.(i+1)) *)
    dest : Int_col.t;
    value : Int_col.t;
  }

  let slots t = Int_col.length t.offsets - 1
  let arrivals t = Int_col.get t.offsets (Int_col.length t.offsets - 1)

  let of_workload workload ~slots =
    if slots < 0 then invalid_arg "Trace.Compact.of_workload: negative slots";
    (* Build into growable heap arrays, then copy once into the off-heap
       columns at their exact final size.  [copy] is made once, outside
       the slot loop: a closure built per slot would allocate every slot,
       and [iteri] beats two bounds-checked [Arrival_batch.dest]/[value]
       calls per arrival. *)
    let offsets = Array.make (slots + 1) 0 in
    let dest = ref (Array.make (max 64 slots) 0) in
    let value = ref (Array.make (max 64 slots) 0) in
    let len = ref 0 in
    let copy j ~dest:d ~value:v =
      !dest.(!len + j) <- d;
      !value.(!len + j) <- v
    in
    let batch = Arrival_batch.create () in
    for i = 0 to slots - 1 do
      Workload.next_into workload batch;
      let n = Arrival_batch.length batch in
      if !len + n > Array.length !dest then begin
        let capacity = max (2 * Array.length !dest) (!len + n) in
        let extend a = Array.append a (Array.make (capacity - Array.length a) 0) in
        dest := extend !dest;
        value := extend !value
      end;
      Arrival_batch.iteri batch ~f:copy;
      len := !len + n;
      offsets.(i + 1) <- !len
    done;
    {
      offsets = Int_col.of_array offsets;
      dest = Int_col.init !len (fun j -> !dest.(j));
      value = Int_col.init !len (fun j -> !value.(j));
    }

  let iter_slot t i ~f =
    if i < 0 || i >= slots t then
      invalid_arg "Trace.Compact.iter_slot: out of bounds";
    (* Offsets are monotone within [0, arrivals] by construction, so the
       column reads inside the segment skip the bounds check. *)
    for j = Int_col.get t.offsets i to Int_col.get t.offsets (i + 1) - 1 do
      f ~dest:(Int_col.unsafe_get t.dest j) ~value:(Int_col.unsafe_get t.value j)
    done

  (* No per-arrival call: one pass over the two columns. *)
  let within t ~ports ~max_value =
    let fits = ref true in
    for j = 0 to arrivals t - 1 do
      if Int_col.unsafe_get t.dest j >= ports
         || Int_col.unsafe_get t.value j > max_value
      then fits := false
    done;
    !fits

  (* Replay straight out of the flat columns: the filled batch segment is
     one column-to-array copy, no per-packet allocation.  Slots beyond the
     end are empty. *)
  let replay t =
    let n = slots t in
    Workload.of_fun_into (fun b i ->
        if i < n then
          for j = Int_col.get t.offsets i to Int_col.get t.offsets (i + 1) - 1
          do
            Arrival_batch.push b ~dest:(Int_col.unsafe_get t.dest j)
              ~value:(Int_col.unsafe_get t.value j)
          done)

  let of_slots slots =
    of_workload (Workload.of_slots slots) ~slots:(Array.length slots)

  let save t ~line =
    let buf = Buffer.create 64 in
    for i = 0 to slots t - 1 do
      Buffer.clear buf;
      iter_slot t i ~f:(fun ~dest ~value ->
          if Buffer.length buf > 0 then Buffer.add_char buf ' ';
          Printf.bprintf buf "%d:%d" dest value);
      line (Buffer.contents buf)
    done

  let parse_cell cell =
    match String.split_on_char ':' cell with
    | [ d; v ] -> (
      match (int_of_string_opt d, int_of_string_opt v) with
      | Some dest, Some _ when dest < 0 -> Error ("negative dest in cell " ^ cell)
      | Some _, Some value when value < 1 ->
        Error ("value below 1 in cell " ^ cell)
      | Some dest, Some value -> Ok { Arrival.dest; value }
      | None, _ | _, None -> Error ("malformed cell " ^ cell))
    | _ -> Error ("malformed cell " ^ cell)

  let parse_line line =
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | "" :: cells -> go acc cells
      | cell :: cells -> (
        match parse_cell cell with
        | Ok a -> go (a :: acc) cells
        | Error reason -> Error reason)
    in
    go [] (String.split_on_char ' ' (String.trim line))

  let load ic =
    let rec go lineno acc =
      match input_line ic with
      | exception End_of_file ->
        if lineno = 1 then Error (1, "empty trace file")
        else Ok (of_slots (Array.of_list (List.rev acc)))
      | line -> (
        match parse_line line with
        | Ok arrivals -> go (lineno + 1) (arrivals :: acc)
        | Error reason -> Error (lineno, reason))
    in
    go 1 []

  let equal a b =
    Int_col.equal a.offsets b.offsets
    && Int_col.equal a.dest b.dest
    && Int_col.equal a.value b.value

  (* Deterministic content digest: a fixed-width little-endian serialization
     of (slots, offsets, dest, value) hashed with MD5.  Two compact traces
     have equal signatures iff they are [equal] (modulo MD5 collisions), on
     any platform or OCaml version — and regardless of whether the columns
     own their storage or window a [pack]ed slab. *)
  let signature t =
    let buf =
      Buffer.create
        (8 * (Int_col.length t.offsets + (2 * Int_col.length t.dest)))
    in
    let add c =
      Buffer.add_int64_le buf (Int64.of_int (Int_col.length c));
      for j = 0 to Int_col.length c - 1 do
        Buffer.add_int64_le buf (Int64.of_int (Int_col.get c j))
      done
    in
    add t.offsets;
    add t.dest;
    add t.value;
    Digest.to_hex (Digest.string (Buffer.contents buf))

  (* Consolidate many compact traces into three shared slabs (one per
     column role) and hand back zero-copy windows.  Content-equal to the
     inputs ([equal]/[signature] agree); the point is memory topology: a
     parallel sweep's whole trace working set becomes three off-heap
     allocations that every domain reads through windows, instead of one
     heap triple per trace. *)
  let pack ts =
    match ts with
    | [] | [ _ ] -> ts
    | _ ->
      let total f = List.fold_left (fun acc t -> acc + Int_col.length (f t)) 0 ts in
      let slab_of f =
        let slab = Int_col.create (total f) in
        let pos = ref 0 in
        let windows =
          List.map
            (fun t ->
              let c = f t in
              let len = Int_col.length c in
              Int_col.blit ~src:c ~src_pos:0 ~dst:slab ~dst_pos:!pos ~len;
              let w = Int_col.sub slab ~pos:!pos ~len in
              pos := !pos + len;
              w)
            ts
        in
        windows
      in
      let offsets = slab_of (fun t -> t.offsets)
      and dest = slab_of (fun t -> t.dest)
      and value = slab_of (fun t -> t.value) in
      List.map2
        (fun offsets (dest, value) -> { offsets; dest; value })
        offsets (List.combine dest value)
end
