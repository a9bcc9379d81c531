open Smbm_core

let config ?(buffer = 4) ?(speedup = 1) works =
  Proc_config.make ~works ~buffer ~speedup ()

let no_hook ~dest:_ ~value:_ ~arrival:_ = ()

let test_accept_and_occupancy () =
  let sw = Proc_switch.create (config ~buffer:2 [| 1; 2 |]) in
  Alcotest.(check int) "free" 2 (Proc_switch.free_space sw);
  Proc_switch.accept sw ~dest:1 ~value:1;
  Alcotest.(check (list int)) "work from port" [ 2 ]
    (Ports.seconds (Ports.proc sw 1));
  Alcotest.(check int) "occupancy" 1 (Proc_switch.occupancy sw);
  Proc_switch.accept sw ~dest:0 ~value:1;
  Alcotest.(check bool) "full" true (Proc_switch.is_full sw);
  match Proc_switch.accept sw ~dest:0 ~value:1 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "accept on full buffer"

let test_ids_are_unique_and_ordered () =
  let sw = Proc_switch.create (config ~buffer:3 [| 1 |]) in
  Proc_switch.accept sw ~dest:0 ~value:1;
  Proc_switch.accept sw ~dest:0 ~value:1;
  match Ports.ids (Ports.proc sw 0) with
  | [ a; b ] -> Alcotest.(check bool) "increasing ids" true (b > a)
  | _ -> Alcotest.fail "expected two packets"

let test_push_out () =
  let sw = Proc_switch.create (config ~buffer:2 [| 1; 2 |]) in
  Proc_switch.accept sw ~dest:1 ~value:1;
  Proc_switch.accept sw ~dest:1 ~value:1;
  ignore (Proc_switch.push_out sw ~victim:1 : int);
  Alcotest.(check (list int)) "tail (most recent) popped" [ 0 ]
    (Ports.ids (Ports.proc sw 1));
  Alcotest.(check int) "occupancy back to 1" 1 (Proc_switch.occupancy sw);
  match Proc_switch.push_out sw ~victim:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "push_out of empty queue"

let test_transmit_phase_each_queue () =
  (* Ports with works 1 and 2: the work-1 port transmits every slot, the
     work-2 port every other slot. *)
  let sw = Proc_switch.create (config ~buffer:4 [| 1; 2 |]) in
  Proc_switch.accept sw ~dest:0 ~value:1;
  Proc_switch.accept sw ~dest:1 ~value:1;
  let sent = Proc_switch.transmit_phase sw ~on_transmit:no_hook in
  Alcotest.(check int) "first slot: work-1 done" 1 sent;
  let sent = Proc_switch.transmit_phase sw ~on_transmit:no_hook in
  Alcotest.(check int) "second slot: work-2 done" 1 sent;
  Alcotest.(check int) "empty" 0 (Proc_switch.occupancy sw)

let test_transmit_speedup () =
  (* Speedup 3 on a work-2 port: one packet completes and the next is half
     processed within a single slot. *)
  let sw = Proc_switch.create (config ~buffer:4 ~speedup:3 [| 2 |]) in
  Proc_switch.accept sw ~dest:0 ~value:1;
  Proc_switch.accept sw ~dest:0 ~value:1;
  let sent = Proc_switch.transmit_phase sw ~on_transmit:no_hook in
  Alcotest.(check int) "one completed" 1 sent;
  Alcotest.(check (list int)) "next half done" [ 1 ]
    (Ports.seconds (Ports.proc sw 0))

let test_total_work_view () =
  let sw = Proc_switch.create (config ~buffer:4 [| 1; 3 |]) in
  Proc_switch.accept sw ~dest:1 ~value:1;
  Proc_switch.accept sw ~dest:1 ~value:1;
  Alcotest.(check int) "W_1" 6 (Proc_switch.queue_work sw 1);
  Alcotest.(check int) "total" 6 (Proc_switch.total_occupied_work sw);
  ignore (Proc_switch.transmit_phase sw ~on_transmit:no_hook);
  Alcotest.(check int) "after one cycle" 5 (Proc_switch.queue_work sw 1)

let test_flush () =
  let sw = Proc_switch.create (config ~buffer:4 [| 1; 2 |]) in
  Proc_switch.accept sw ~dest:0 ~value:1;
  Proc_switch.accept sw ~dest:1 ~value:1;
  Alcotest.(check int) "flushed count" 2 (Proc_switch.flush sw);
  Alcotest.(check int) "occupancy" 0 (Proc_switch.occupancy sw);
  Proc_switch.check_invariants sw

let test_clock () =
  let sw = Proc_switch.create (config [| 1 |]) in
  Alcotest.(check int) "starts at 0" 0 (Proc_switch.now sw);
  Proc_switch.advance_slot sw;
  Proc_switch.advance_slot sw;
  Alcotest.(check int) "advanced" 2 (Proc_switch.now sw);
  Proc_switch.accept sw ~dest:0 ~value:1;
  match Ports.proc sw 0 with
  | [ (_, _, arrival) ] -> Alcotest.(check int) "arrival stamped" 2 arrival
  | _ -> Alcotest.fail "expected one packet"

let test_invariants_pass () =
  let sw = Proc_switch.create (config ~buffer:8 [| 1; 2; 3 |]) in
  for _ = 1 to 5 do
    Proc_switch.accept sw ~dest:1 ~value:1
  done;
  ignore (Proc_switch.transmit_phase sw ~on_transmit:no_hook);
  Proc_switch.check_invariants sw

(* Every phase transmits a prefix of each queue: what remains is the
   pre-phase contents minus as many head packets as the hook reported for
   that port. *)
let prop_fifo_order =
  QCheck2.Test.make
    ~name:"packets transmit in FIFO order per queue under random driving"
    ~count:200
    QCheck2.Gen.(list (int_range 0 2))
    (fun dests ->
      let sw = Proc_switch.create (config ~buffer:6 [| 1; 2; 3 |]) in
      let ok = ref true in
      let phase () =
        let before = Array.init 3 (fun i -> Ports.ids (Ports.proc sw i)) in
        let sent = Array.make 3 0 in
        ignore
          (Proc_switch.transmit_phase sw ~on_transmit:(fun ~dest ~value:_ ~arrival:_ ->
               sent.(dest) <- sent.(dest) + 1));
        Array.iteri
          (fun i ids ->
            let rec drop k l = if k = 0 then l else drop (k - 1) (List.tl l) in
            if drop sent.(i) ids <> Ports.ids (Ports.proc sw i) then ok := false)
          before
      in
      List.iter
        (fun dest ->
          if not (Proc_switch.is_full sw) then Proc_switch.accept sw ~dest ~value:1;
          phase ();
          Proc_switch.advance_slot sw)
        dests;
      for _ = 1 to 20 do
        phase ()
      done;
      !ok && Proc_switch.occupancy sw = 0)

let suite =
  [
    Alcotest.test_case "accept and occupancy" `Quick test_accept_and_occupancy;
    Alcotest.test_case "unique ids" `Quick test_ids_are_unique_and_ordered;
    Alcotest.test_case "push_out" `Quick test_push_out;
    Alcotest.test_case "transmit phase per queue" `Quick
      test_transmit_phase_each_queue;
    Alcotest.test_case "transmit with speedup" `Quick test_transmit_speedup;
    Alcotest.test_case "total work view" `Quick test_total_work_view;
    Alcotest.test_case "flush" `Quick test_flush;
    Alcotest.test_case "slot clock" `Quick test_clock;
    Alcotest.test_case "invariants pass" `Quick test_invariants_pass;
    Qc.to_alcotest prop_fifo_order;
  ]
