(* The per-port FIFO work queue of Proc_switch, exercised through a
   single-port switch: work accounting, tail push-out, head-of-line
   run-to-completion service and flushing. *)

open Smbm_core

let single ?(buffer = 8) ?(speedup = 1) work =
  Proc_switch.create (Proc_config.make ~works:[| work |] ~buffer ~speedup ())

let contents sw = Ports.proc sw 0
let residuals sw = Ports.seconds (contents sw)

let hol_residual sw =
  match residuals sw with [] -> 0 | r :: _ -> r

let transmit sw =
  let sent = ref [] in
  let n =
    Proc_switch.transmit_phase sw ~on_transmit:(fun ~dest:_ ~value:_ ~arrival ->
        sent := arrival :: !sent)
  in
  (n, List.rev !sent)

let test_empty () =
  let sw = single 3 in
  Alcotest.(check int) "length" 0 (Proc_switch.queue_length sw 0);
  Alcotest.(check int) "total work" 0 (Proc_switch.queue_work sw 0);
  Alcotest.(check int) "hol residual" 0 (hol_residual sw)

let test_push_tracks_work () =
  let sw = single 3 in
  Proc_switch.accept sw ~dest:0 ~value:1;
  Proc_switch.accept sw ~dest:0 ~value:1;
  Alcotest.(check int) "length" 2 (Proc_switch.queue_length sw 0);
  Alcotest.(check int) "total work" 6 (Proc_switch.queue_work sw 0);
  Alcotest.(check int) "hol residual" 3 (hol_residual sw)

let test_packets_carry_port_work () =
  let sw =
    Proc_switch.create (Proc_config.make ~works:[| 3; 5 |] ~buffer:4 ())
  in
  Proc_switch.accept sw ~dest:0 ~value:1;
  Proc_switch.accept sw ~dest:1 ~value:1;
  Proc_switch.accept sw ~dest:1 ~value:1;
  Alcotest.(check (list int)) "port 0" [ 3 ] (Ports.seconds (Ports.proc sw 0));
  Alcotest.(check (list int)) "port 1" [ 5; 5 ] (Ports.seconds (Ports.proc sw 1));
  match Proc_switch.accept sw ~dest:2 ~value:1 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "packet accepted for a port that does not exist"

let test_pop_back_is_lifo_tail () =
  let sw = single 2 in
  Proc_switch.accept sw ~dest:0 ~value:1;
  Proc_switch.accept sw ~dest:0 ~value:1;
  ignore (Proc_switch.push_out sw ~victim:0 : int);
  Alcotest.(check (list int)) "tail evicted" [ 0 ] (Ports.ids (contents sw));
  Alcotest.(check int) "total work after pop" 2 (Proc_switch.queue_work sw 0)

let test_process_single_cycle () =
  let sw = single 2 in
  Proc_switch.accept sw ~dest:0 ~value:1;
  let n, _ = transmit sw in
  Alcotest.(check int) "nothing transmitted" 0 n;
  Alcotest.(check int) "hol residual decremented" 1 (hol_residual sw);
  Alcotest.(check int) "total work decremented" 1 (Proc_switch.queue_work sw 0);
  let n, _ = transmit sw in
  Alcotest.(check int) "transmitted on completion" 1 n;
  Alcotest.(check int) "queue empty" 0 (Proc_switch.queue_length sw 0)

let test_process_run_to_completion () =
  (* Three work-2 packets admitted in slots 0, 1, 2 and 5 cycles: the two
     oldest complete in order, the third is half done. *)
  let sw = single ~speedup:5 2 in
  for _ = 1 to 3 do
    Proc_switch.accept sw ~dest:0 ~value:1;
    Proc_switch.advance_slot sw
  done;
  let n, sent = transmit sw in
  Alcotest.(check int) "two transmitted" 2 n;
  Alcotest.(check (list int)) "FIFO completion order" [ 0; 1 ] sent;
  Alcotest.(check (list int)) "one left" [ 2 ] (Ports.ids (contents sw));
  Alcotest.(check int) "hol half processed" 1 (hol_residual sw);
  Alcotest.(check int) "total work" 1 (Proc_switch.queue_work sw 0)

let test_process_budget_left_over () =
  let sw = single ~speedup:10 1 in
  Proc_switch.accept sw ~dest:0 ~value:1;
  let n, _ = transmit sw in
  Alcotest.(check int) "one transmitted" 1 n;
  Alcotest.(check int) "empty" 0 (Proc_switch.queue_length sw 0)

let test_partially_processed_tail_pop () =
  (* Evicting the tail of a single partially processed packet must subtract
     its residual, not its full work. *)
  let sw = single ~speedup:2 3 in
  Proc_switch.accept sw ~dest:0 ~value:1;
  ignore (transmit sw);
  Alcotest.(check int) "residual" 1 (Proc_switch.queue_work sw 0);
  ignore (Proc_switch.push_out sw ~victim:0 : int);
  Alcotest.(check int) "total work zero" 0 (Proc_switch.queue_work sw 0);
  Alcotest.(check int) "occupied work zero" 0
    (Proc_switch.total_occupied_work sw)

let test_clear () =
  let sw = single 2 in
  Proc_switch.accept sw ~dest:0 ~value:1;
  Proc_switch.accept sw ~dest:0 ~value:1;
  Alcotest.(check int) "dropped" 2 (Proc_switch.flush sw);
  Alcotest.(check int) "total work" 0 (Proc_switch.queue_work sw 0)

let prop_total_work_consistent =
  QCheck2.Test.make
    ~name:"cached total work equals sum of residuals under random ops"
    ~count:300
    QCheck2.Gen.(
      pair (int_range 1 5)
        (list (oneof [ pure `Push; pure `Pop; map (fun c -> `Process c) (int_range 1 4) ])))
    (fun (work, ops) ->
      let sw = single ~buffer:64 work in
      List.iter
        (fun op ->
          match op with
          | `Push -> if not (Proc_switch.is_full sw) then Proc_switch.accept sw ~dest:0 ~value:1
          | `Pop ->
            if Proc_switch.queue_length sw 0 > 0 then
              ignore (Proc_switch.push_out sw ~victim:0 : int)
          | `Process c ->
            (* speedup 1: c phases serve c cycles *)
            for _ = 1 to c do
              ignore (transmit sw)
            done)
        ops;
      List.fold_left ( + ) 0 (residuals sw) = Proc_switch.queue_work sw 0)

let suite =
  [
    Alcotest.test_case "empty queue" `Quick test_empty;
    Alcotest.test_case "push tracks work" `Quick test_push_tracks_work;
    Alcotest.test_case "packets carry their port's work" `Quick
      test_packets_carry_port_work;
    Alcotest.test_case "pop_back takes tail" `Quick test_pop_back_is_lifo_tail;
    Alcotest.test_case "single-cycle processing" `Quick
      test_process_single_cycle;
    Alcotest.test_case "run-to-completion speedup" `Quick
      test_process_run_to_completion;
    Alcotest.test_case "budget exceeding queue" `Quick
      test_process_budget_left_over;
    Alcotest.test_case "pop of partially processed tail" `Quick
      test_partially_processed_tail_pop;
    Alcotest.test_case "clear" `Quick test_clear;
    Qc.to_alcotest prop_total_work_consistent;
  ]
