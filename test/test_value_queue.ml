(* The per-port priority queue of Value_switch, exercised through a
   single-port switch: value aggregates, the value range, and the pinned
   intra-bucket order — transmission takes the oldest packet of the
   maximum value, push-out the youngest packet of the minimum value. *)

open Smbm_core

let single ?(buffer = 1000) k =
  Value_switch.create (Value_config.make ~ports:1 ~max_value:k ~buffer ())

let values sw = Ports.seconds (Ports.value sw 0)

let max_value sw = match values sw with [] -> None | v :: _ -> Some v

let average sw =
  let n = Value_switch.queue_length sw 0 in
  if n = 0 then 0.0
  else float_of_int (Value_switch.queue_total_value sw 0) /. float_of_int n

let push sw v = Value_switch.accept sw ~dest:0 ~value:v

(* One packet off the maximum end: speedup 1, single port. *)
let pop_max sw =
  let got = ref None in
  ignore
    (Value_switch.transmit_phase sw ~on_transmit:(fun ~dest:_ ~value ~arrival:_ ->
         got := Some value));
  !got

let test_empty () =
  let sw = single 4 in
  Alcotest.(check int) "length" 0 (Value_switch.queue_length sw 0);
  Alcotest.(check int) "min" 0 (Value_switch.queue_min_value_or sw 0 ~default:0);
  Alcotest.(check (option int)) "max" None (max_value sw);
  Alcotest.(check (float 1e-9)) "avg" 0.0 (average sw)

let test_push_and_aggregates () =
  let sw = single 10 in
  List.iter (push sw) [ 4; 9; 1; 4 ];
  Alcotest.(check int) "length" 4 (Value_switch.queue_length sw 0);
  Alcotest.(check int) "total" 18 (Value_switch.queue_total_value sw 0);
  Alcotest.(check (float 1e-9)) "avg" 4.5 (average sw);
  Alcotest.(check int) "min" 1 (Value_switch.queue_min_value_or sw 0 ~default:0);
  Alcotest.(check (option int)) "max" (Some 9) (max_value sw)

let test_value_range () =
  let sw = single 3 in
  (match push sw 4 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "value above k accepted");
  match push sw 0 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "value below 1 accepted"

let test_pop_max_is_fifo_within_value () =
  let sw = single 5 in
  List.iter (push sw) [ 5; 5; 2 ];
  Alcotest.(check (option int)) "value" (Some 5) (pop_max sw);
  Alcotest.(check (list int)) "earliest of the ties left first" [ 1; 2 ]
    (Ports.ids (Ports.value sw 0))

let test_pop_min_is_lifo_within_value () =
  let sw = single 5 in
  List.iter (push sw) [ 2; 2; 5 ];
  Alcotest.(check int) "value" 2 (Value_switch.push_out sw ~victim:0);
  Alcotest.(check (list int)) "most recent of the ties evicted" [ 2; 0 ]
    (Ports.ids (Ports.value sw 0))

let test_pop_empty () =
  let sw = single 2 in
  (match Value_switch.push_out sw ~victim:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "push_out on empty");
  Alcotest.(check (option int)) "transmit on empty" None (pop_max sw)

let test_to_list_sorted_descending () =
  let sw = single 9 in
  List.iter (push sw) [ 3; 8; 1; 8; 5 ];
  Alcotest.(check (list int)) "non-increasing" [ 8; 8; 5; 3; 1 ] (values sw)

let test_clear () =
  let sw = single 4 in
  push sw 2;
  Alcotest.(check int) "dropped" 1 (Value_switch.flush sw);
  Alcotest.(check int) "total" 0 (Value_switch.queue_total_value sw 0);
  Alcotest.(check int) "length" 0 (Value_switch.queue_length sw 0)

let prop_model =
  QCheck2.Test.make ~name:"value queue agrees with sorted-list model"
    ~count:300
    QCheck2.Gen.(
      pair (int_range 1 8)
        (list (oneof [ map (fun v -> `Push v) (int_range 1 8); pure `Pop_min; pure `Pop_max ])))
    (fun (k, ops) ->
      let sw = single k in
      (* Model: descending-sorted list of values. *)
      let model = ref [] in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | `Push v ->
            if v <= k then begin
              push sw v;
              model := List.sort (fun a b -> compare b a) (v :: !model)
            end
          | `Pop_min -> (
            match List.rev !model with
            | [] -> ()
            | v :: rest_rev ->
              if Value_switch.push_out sw ~victim:0 <> v then ok := false;
              model := List.rev rest_rev)
          | `Pop_max -> (
            match !model with
            | [] -> ()
            | v :: rest ->
              if pop_max sw <> Some v then ok := false;
              model := rest))
        ops;
      !ok
      && values sw = !model
      && Value_switch.queue_total_value sw 0 = List.fold_left ( + ) 0 !model)

let suite =
  [
    Alcotest.test_case "empty queue" `Quick test_empty;
    Alcotest.test_case "aggregates" `Quick test_push_and_aggregates;
    Alcotest.test_case "value range" `Quick test_value_range;
    Alcotest.test_case "pop_max FIFO within value" `Quick
      test_pop_max_is_fifo_within_value;
    Alcotest.test_case "pop_min LIFO within value" `Quick
      test_pop_min_is_lifo_within_value;
    Alcotest.test_case "pop on empty" `Quick test_pop_empty;
    Alcotest.test_case "to_list descending" `Quick
      test_to_list_sorted_descending;
    Alcotest.test_case "clear" `Quick test_clear;
    Qc.to_alcotest prop_model;
  ]
