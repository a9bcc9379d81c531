open Smbm_core
open Smbm_sim

let decision = Alcotest.testable Decision.pp Decision.equal

let switch ?(buffer = 8) ~works ~lengths () =
  let config = Proc_config.make ~works ~buffer () in
  let sw = Proc_switch.create config in
  Array.iteri
    (fun dest n ->
      for _ = 1 to n do
        ignore (Proc_switch.accept sw ~dest ~value:1)
      done)
    lengths;
  (config, sw)

let test_validation () =
  let config = Proc_config.contiguous ~k:4 ~buffer:8 () in
  (match P_reserved.make ~reserve:(-1) config with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative reserve accepted");
  match P_reserved.make ~reserve:3 config with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "over-committed reservations accepted"

let test_greedy_accept () =
  let config, sw = switch ~works:[| 1; 2 |] ~lengths:[| 1; 0 |] () in
  let p = P_reserved.make ~reserve:2 config in
  Alcotest.check decision "space free" Decision.accept
    (Policy.admit p sw ~dest:1 ~value:1)

let test_pool_user_evicted_for_reserved_arrival () =
  (* B = 4, reserve 1 each of 2 ports: Q1 holds all 4 slots (1 reserved + 3
     pool); an arrival for empty Q0 is inside its reservation and reclaims
     from Q1. *)
  let config, sw = switch ~buffer:4 ~works:[| 1; 2 |] ~lengths:[| 0; 4 |] () in
  let p = P_reserved.make ~reserve:1 config in
  Alcotest.check decision "reclaims reservation"
    (Decision.push_out 1)
    (Policy.admit p sw ~dest:0 ~value:1)

let test_reserved_slots_never_stolen () =
  (* Both queues exactly at their reservations (2 + 2 = B): nobody is above
     reservation, so a pool arrival must be dropped, not steal reserved
     slots. *)
  let config, sw = switch ~buffer:4 ~works:[| 1; 2 |] ~lengths:[| 2; 2 |] () in
  let p = P_reserved.make ~reserve:2 config in
  Alcotest.check decision "no pool user to evict" Decision.drop
    (Policy.admit p sw ~dest:0 ~value:1)

let test_pool_arrival_evicts_largest_pool_user () =
  (* reserve 1; Q0 = 1 (no pool), Q1 = 2 (1 pool), Q2 = 3 (2 pool); full
     B = 6.  An arrival for Q1 (already above reservation) evicts from Q2,
     the largest pool user. *)
  let config, sw =
    switch ~buffer:6 ~works:[| 1; 2; 3 |] ~lengths:[| 1; 2; 3 |] ()
  in
  let p = P_reserved.make ~reserve:1 config in
  Alcotest.check decision "largest pool user"
    (Decision.push_out 2)
    (Policy.admit p sw ~dest:1 ~value:1)

let test_own_queue_largest_pool_user_drops () =
  let config, sw =
    switch ~buffer:6 ~works:[| 1; 2; 3 |] ~lengths:[| 1; 1; 4 |] ()
  in
  let p = P_reserved.make ~reserve:1 config in
  (* Q2 with virtual add holds 4 pool slots, more than anyone: drop. *)
  Alcotest.check decision "own queue dominates pool" Decision.drop
    (Policy.admit p sw ~dest:2 ~value:1)

let prop_reserve_zero_is_lqd =
  QCheck2.Test.make ~name:"RSV(0) coincides with LQD" ~count:300
    QCheck2.Gen.(
      let* k = int_range 1 4 in
      let* buffer = int_range k 8 in
      let* fill = list_size (int_range 0 16) (int_range 0 (k - 1)) in
      let* dest = int_range 0 (k - 1) in
      pure (k, buffer, fill, dest))
    (fun (k, buffer, fill, dest) ->
      let config = Proc_config.contiguous ~k ~buffer () in
      let sw = Proc_switch.create config in
      List.iter
        (fun d ->
          if not (Proc_switch.is_full sw) then
            ignore (Proc_switch.accept sw ~dest:d ~value:1))
        fill;
      Decision.equal
        (Policy.admit (P_reserved.make ~reserve:0 config) sw ~dest ~value:1)
        (Policy.admit (P_lqd.make config) sw ~dest ~value:1))

let prop_reservation_invariant_under_load =
  (* Driving RSV(r) with arbitrary traffic: whenever a queue is below its
     reservation, an arrival for it is never dropped. *)
  QCheck2.Test.make
    ~name:"an arrival inside its reservation is always admitted" ~count:200
    QCheck2.Gen.(
      let* k = int_range 2 4 in
      let* reserve = int_range 1 2 in
      let* buffer = int_range (k * 2) 12 in
      let* dests = list_size (int_range 1 40) (int_range 0 (k - 1)) in
      pure (k, reserve, buffer, dests))
    (fun (k, reserve, buffer, dests) ->
      let config = Proc_config.contiguous ~k ~buffer () in
      let policy = P_reserved.make ~reserve config in
      let inst, sw = Engine.Proc.create config policy in
      let ok = ref true in
      List.iter
        (fun dest ->
          let below = Proc_switch.queue_length sw dest < reserve in
          let before = (Metrics.dropped inst.Instance.metrics) in
          inst.Instance.arrive_dv ~dest ~value:1;
          let dropped = (Metrics.dropped inst.Instance.metrics) > before in
          if below && dropped then ok := false;
          inst.Instance.transmit ();
          inst.Instance.end_slot ())
        dests;
      !ok)

let test_bridges_nest_and_lqd_under_hotspot () =
  (* A hotspot floods port 0 while the other ports trickle: RSV keeps the
     trickle ports alive (like NEST) while lending the hot port the pool
     (like LQD).  Its throughput should be at least LQD's and NEST's under
     this load. *)
  let config = Proc_config.uniform ~n:4 ~work:2 ~buffer:16 () in
  let trace slot =
    let hot = List.init 6 (fun _ -> Arrival.make ~dest:0 ()) in
    let trickle =
      if slot mod 2 = 0 then
        [ Arrival.make ~dest:1 (); Arrival.make ~dest:2 (); Arrival.make ~dest:3 () ]
      else []
    in
    hot @ trickle
  in
  let run policy =
    let inst = Engine.Proc.instance config policy in
    Experiment.run
      ~params:{ Experiment.slots = 3_000; flush_every = None; check_every = None }
      ~workload:(Smbm_traffic.Workload.of_fun trace)
      [ inst ];
    (Metrics.transmitted inst.Instance.metrics)
  in
  let rsv = run (P_reserved.make ~reserve:2 config) in
  let nest = run (P_nest.make config) in
  Alcotest.(check bool) "RSV at least NEST here" true (rsv >= nest)

let suite =
  [
    Alcotest.test_case "validation" `Quick test_validation;
    Alcotest.test_case "greedy accept" `Quick test_greedy_accept;
    Alcotest.test_case "reclaims reservation" `Quick
      test_pool_user_evicted_for_reserved_arrival;
    Alcotest.test_case "reserved slots never stolen" `Quick
      test_reserved_slots_never_stolen;
    Alcotest.test_case "pool arrival evicts largest pool user" `Quick
      test_pool_arrival_evicts_largest_pool_user;
    Alcotest.test_case "own queue dominates pool" `Quick
      test_own_queue_largest_pool_user_drops;
    Qc.to_alcotest prop_reserve_zero_is_lqd;
    Qc.to_alcotest prop_reservation_invariant_under_load;
    Alcotest.test_case "bridges NEST and LQD" `Quick
      test_bridges_nest_and_lqd_under_hotspot;
  ]
