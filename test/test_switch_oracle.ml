(* Differential testing: the switches' struct-of-arrays state (slot rings
   and value buckets with cached aggregates) against deliberately naive
   list-based oracles, under long random operation sequences.  After every
   operation the whole per-port contents must agree, read through
   [iter_port]: packet ids, residual work and values, arrival slots, and
   the order within each queue — FIFO for the processing model; for the value
   model, value descending with the oldest first among equal values, so
   push-out takes the youngest packet of the minimum value and
   transmission the oldest packet of the maximum value. *)

open Smbm_core

(* --- processing-model oracle: queues as lists of
   (id, residual, value, arrival) --- *)

module Proc_oracle = struct
  type t = {
    works : int array;
    speedup : int;
    queues : (int * int * int * int) list array;  (* head first *)
    mutable next_id : int;
    mutable now : int;
  }

  let create ~works ~speedup =
    {
      works;
      speedup;
      queues = Array.make (Array.length works) [];
      next_id = 0;
      now = 0;
    }

  let occupancy t =
    Array.fold_left (fun acc q -> acc + List.length q) 0 t.queues

  let accept t ~dest ~value =
    t.queues.(dest) <-
      t.queues.(dest) @ [ (t.next_id, t.works.(dest), value, t.now) ];
    t.next_id <- t.next_id + 1

  let push_out t ~victim =
    match List.rev t.queues.(victim) with
    | [] -> invalid_arg "oracle: empty victim"
    | (_, _, v, _) :: rest_rev ->
      t.queues.(victim) <- List.rev rest_rev;
      v

  (* Returns the transmitted (dest, value, arrival) triples in order. *)
  let transmit t =
    let sent = ref [] in
    Array.iteri
      (fun i q ->
        let budget = ref t.speedup in
        let rec serve = function
          | [] -> []
          | (id, hol, value, arrival) :: rest ->
            if !budget = 0 then (id, hol, value, arrival) :: rest
            else begin
              let used = min !budget hol in
              budget := !budget - used;
              if hol - used = 0 then begin
                sent := (i, value, arrival) :: !sent;
                serve rest
              end
              else (id, hol - used, value, arrival) :: rest
            end
        in
        t.queues.(i) <- serve q)
      t.queues;
    List.rev !sent

  let flush t =
    let n = occupancy t in
    Array.fill t.queues 0 (Array.length t.queues) [];
    n
end

let prop_proc_switch_matches_oracle =
  QCheck2.Test.make ~name:"Proc_switch agrees with a naive list oracle"
    ~count:200
    QCheck2.Gen.(
      let* n = int_range 1 4 in
      let* works = array_size (pure n) (int_range 1 5) in
      let* buffer = int_range 1 6 in
      let* speedup = int_range 1 3 in
      let* max_value = int_range 1 6 in
      let* ops =
        list_size (int_range 1 60)
          (oneof
             [
               map2
                 (fun d v -> `Accept (d, v))
                 (int_range 0 (n - 1))
                 (int_range 1 max_value);
               map (fun v -> `Push_out v) (int_range 0 (n - 1));
               pure `Transmit;
               pure `Flush;
             ])
      in
      pure (works, buffer, speedup, max_value, ops))
    (fun (works, buffer, speedup, max_value, ops) ->
      let config = Proc_config.make ~works ~buffer ~speedup ~max_value () in
      let sw = Proc_switch.create config in
      let oracle = Proc_oracle.create ~works ~speedup in
      let ok = ref true in
      List.iter
        (fun op ->
          (match op with
          | `Accept (dest, value) ->
            if not (Proc_switch.is_full sw) then begin
              Proc_switch.accept sw ~dest ~value;
              Proc_oracle.accept oracle ~dest ~value
            end
          | `Push_out victim ->
            if Proc_switch.queue_length sw victim > 0 then begin
              let lost = Proc_switch.push_out sw ~victim in
              if lost <> Proc_oracle.push_out oracle ~victim then ok := false
            end
          | `Transmit ->
            let sent = ref [] in
            let a =
              Proc_switch.transmit_phase sw
                ~on_transmit:(fun ~dest ~value ~arrival ->
                  sent := (dest, value, arrival) :: !sent)
            in
            let b = Proc_oracle.transmit oracle in
            if a <> List.length b || List.rev !sent <> b then ok := false;
            Proc_switch.advance_slot sw;
            oracle.now <- oracle.now + 1
          | `Flush ->
            if Proc_switch.flush sw <> Proc_oracle.flush oracle then ok := false);
          Proc_switch.check_invariants sw;
          if Proc_switch.occupancy sw <> Proc_oracle.occupancy oracle then
            ok := false;
          Array.iteri
            (fun i q ->
              if Ports.proc_valued sw i <> q then ok := false;
              if Proc_switch.queue_length sw i <> List.length q then ok := false;
              let work = List.fold_left (fun acc (_, r, _, _) -> acc + r) 0 q in
              if Proc_switch.queue_work sw i <> work then ok := false;
              let value = List.fold_left (fun acc (_, _, v, _) -> acc + v) 0 q in
              if Proc_switch.queue_value sw i <> value then ok := false;
              let tail =
                match List.rev q with [] -> 0 | (_, _, v, _) :: _ -> v
              in
              if Proc_switch.tail_value sw i <> tail then ok := false)
            oracle.queues)
        ops;
      !ok)

(* --- value-model oracle: queues as lists in transmission order --- *)

module Value_oracle = struct
  type t = {
    speedup : int;
    queues : (int * int * int) list array;  (* (id, value, arrival) *)
    mutable next_id : int;
    mutable now : int;
  }

  let create ~n ~speedup =
    { speedup; queues = Array.make n []; next_id = 0; now = 0 }

  let occupancy t =
    Array.fold_left (fun acc q -> acc + List.length q) 0 t.queues

  (* The newcomer is the youngest packet: it goes after every packet of
     equal or larger value. *)
  let accept t ~dest ~value =
    let p = (t.next_id, value, t.now) in
    t.next_id <- t.next_id + 1;
    let rec insert = function
      | ((_, v, _) as q) :: rest when v >= value -> q :: insert rest
      | rest -> p :: rest
    in
    t.queues.(dest) <- insert t.queues.(dest)

  (* The last element is the youngest packet of the minimum value. *)
  let push_out t ~victim =
    match List.rev t.queues.(victim) with
    | [] -> invalid_arg "oracle: empty victim"
    | (_, v, _) :: rest_rev ->
      t.queues.(victim) <- List.rev rest_rev;
      v

  (* Returns the transmitted (dest, value, arrival) triples in order. *)
  let transmit t =
    let sent = ref [] in
    Array.iteri
      (fun i q ->
        let rec take budget = function
          | (_, v, arrival) :: rest when budget > 0 ->
            sent := (i, v, arrival) :: !sent;
            take (budget - 1) rest
          | rest -> rest
        in
        t.queues.(i) <- take t.speedup q)
      t.queues;
    List.rev !sent

  let flush t =
    let n = occupancy t in
    Array.fill t.queues 0 (Array.length t.queues) [];
    n
end

let prop_value_switch_matches_oracle =
  QCheck2.Test.make ~name:"Value_switch agrees with a naive list oracle"
    ~count:200
    QCheck2.Gen.(
      let* n = int_range 1 4 in
      let* k = Qc.value_levels in
      let* buffer = int_range 1 6 in
      let* speedup = int_range 1 3 in
      let* ops =
        list_size (int_range 1 60)
          (frequency
             [
               ( 3,
                 map2
                   (fun d v -> `Accept (d, v))
                   (int_range 0 (n - 1))
                   (int_range 1 k) );
               (1, map (fun v -> `Push_out v) (int_range 0 (n - 1)));
               (1, pure `Transmit);
               (1, pure `Advance);
               (1, pure `Flush);
             ])
      in
      pure (n, k, buffer, speedup, ops))
    (fun (n, k, buffer, speedup, ops) ->
      let config = Value_config.make ~ports:n ~max_value:k ~buffer ~speedup () in
      let sw = Value_switch.create config in
      let oracle = Value_oracle.create ~n ~speedup in
      let ok = ref true in
      List.iter
        (fun op ->
          (match op with
          | `Accept (dest, value) ->
            if not (Value_switch.is_full sw) then begin
              Value_switch.accept sw ~dest ~value;
              Value_oracle.accept oracle ~dest ~value
            end
          | `Push_out victim ->
            if Value_switch.queue_length sw victim > 0 then begin
              let lost = Value_switch.push_out sw ~victim in
              if lost <> Value_oracle.push_out oracle ~victim then ok := false
            end
          | `Transmit ->
            let sent = ref [] in
            let c =
              Value_switch.transmit_phase sw
                ~on_transmit:(fun ~dest ~value ~arrival ->
                  sent := (dest, value, arrival) :: !sent)
            in
            let expected = Value_oracle.transmit oracle in
            if c <> List.length expected || List.rev !sent <> expected then
              ok := false
          | `Advance ->
            Value_switch.advance_slot sw;
            oracle.now <- oracle.now + 1
          | `Flush ->
            if Value_switch.flush sw <> Value_oracle.flush oracle then
              ok := false);
          Value_switch.check_invariants sw;
          if Value_switch.occupancy sw <> Value_oracle.occupancy oracle then
            ok := false;
          Array.iteri
            (fun i q ->
              if Ports.value sw i <> q then ok := false;
              if Value_switch.queue_length sw i <> List.length q then
                ok := false;
              let min_v = match List.rev q with [] -> 0 | (_, v, _) :: _ -> v in
              if Value_switch.queue_min_value_or sw i ~default:0 <> min_v then
                ok := false;
              let sum = List.fold_left (fun acc (_, v, _) -> acc + v) 0 q in
              if Value_switch.queue_total_value sw i <> sum then ok := false)
            oracle.queues)
        ops;
      !ok)

let suite =
  [
    Qc.to_alcotest prop_proc_switch_matches_oracle;
    Qc.to_alcotest prop_value_switch_matches_oracle;
  ]
