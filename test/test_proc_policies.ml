open Smbm_core

(* Build a switch and fill queues by accepting packets; [lengths.(i)] packets
   go to port i. *)
let switch ?(buffer = 8) ?(speedup = 1) ~works ~lengths () =
  let config = Proc_config.make ~works ~buffer ~speedup () in
  let sw = Proc_switch.create config in
  Array.iteri
    (fun dest n ->
      for _ = 1 to n do
        ignore (Proc_switch.accept sw ~dest ~value:1)
      done)
    lengths;
  (config, sw)

let decision = Alcotest.testable Decision.pp Decision.equal

(* The paper's Fig. 2 setting: maximal work 3, four ports, two of which share
   work 2, shared buffer of size 8. *)
let fig2_works = [| 1; 2; 2; 3 |]

let test_nhst_thresholds () =
  let config = Proc_config.make ~works:fig2_works ~buffer:8 () in
  (* Z = 1 + 1/2 + 1/2 + 1/3 = 7/3; thresholds 24/7, 12/7, 12/7, 8/7. *)
  Alcotest.(check (float 1e-9)) "t0" (24.0 /. 7.0) (P_nhst.threshold config 0);
  Alcotest.(check (float 1e-9)) "t3" (8.0 /. 7.0) (P_nhst.threshold config 3)

let test_nhst_admission () =
  let _, sw = switch ~works:fig2_works ~lengths:[| 3; 0; 0; 1 |] () in
  let p = P_nhst.make (Proc_switch.config sw) in
  (* |Q_0| = 3 < 24/7: accept; |Q_3| = 1 >= 8/7 - no: 1 < 8/7 so accept;
     after another packet |Q_3| = 2 >= 8/7: drop. *)
  Alcotest.check decision "port 0 under threshold" Decision.accept
    (Policy.admit p sw ~dest:0 ~value:1);
  Alcotest.check decision "port 3 under threshold" Decision.accept
    (Policy.admit p sw ~dest:3 ~value:1);
  ignore (Proc_switch.accept sw ~dest:3 ~value:1);
  Alcotest.check decision "port 3 over threshold" Decision.drop
    (Policy.admit p sw ~dest:3 ~value:1);
  (* Port 0 at threshold: 24/7 = 3.43, length 4 > threshold. *)
  ignore (Proc_switch.accept sw ~dest:0 ~value:1);
  Alcotest.check decision "port 0 over threshold" Decision.drop
    (Policy.admit p sw ~dest:0 ~value:1)

let test_nest_admission () =
  let _, sw = switch ~works:fig2_works ~lengths:[| 1; 2; 0; 0 |] () in
  let p = P_nest.make (Proc_switch.config sw) in
  (* B/n = 2. *)
  Alcotest.check decision "below share" Decision.accept
    (Policy.admit p sw ~dest:0 ~value:1);
  Alcotest.check decision "at share" Decision.drop
    (Policy.admit p sw ~dest:1 ~value:1);
  Alcotest.check decision "empty queue" Decision.accept
    (Policy.admit p sw ~dest:3 ~value:1)

let test_nest_respects_full_buffer () =
  let _, sw = switch ~works:[| 1; 1 |] ~buffer:2 ~lengths:[| 1; 1 |] () in
  let p = P_nest.make (Proc_switch.config sw) in
  Alcotest.check decision "full buffer" Decision.drop
    (Policy.admit p sw ~dest:0 ~value:1)

let test_nhdt_pure_predicate () =
  (* B = 8, n = 4, H_4 = 25/12.  Arrival for the (only) longest queue:
     m = 1, threshold B/H_4 = 3.84. *)
  Alcotest.(check bool) "longest under its share" true
    (P_nhdt.admits ~buffer:8 ~lengths:[| 3; 0; 0; 0 |] ~dest:0);
  (* sum of lengths >= |Q_0| is 4 >= 3.84: reject. *)
  Alcotest.(check bool) "longest over its share" false
    (P_nhdt.admits ~buffer:8 ~lengths:[| 4; 0; 0; 0 |] ~dest:0);
  (* Arrival for an empty queue counts every queue: m = 4, threshold = B. *)
  Alcotest.(check bool) "empty queue sees whole buffer" true
    (P_nhdt.admits ~buffer:8 ~lengths:[| 4; 2; 1; 0 |] ~dest:3)

let test_nhdt_admission_matches_predicate () =
  let _, sw = switch ~works:fig2_works ~lengths:[| 3; 1; 0; 0 |] () in
  let p = P_nhdt.make (Proc_switch.config sw) in
  let expected =
    if P_nhdt.admits ~buffer:8 ~lengths:[| 3; 1; 0; 0 |] ~dest:1 then
      Decision.accept
    else Decision.drop
  in
  Alcotest.check decision "policy matches predicate" expected
    (Policy.admit p sw ~dest:1 ~value:1)

let test_lqd_accepts_when_space () =
  let _, sw = switch ~works:fig2_works ~lengths:[| 4; 2; 1; 0 |] () in
  let p = P_lqd.make (Proc_switch.config sw) in
  Alcotest.check decision "greedy accept" Decision.accept
    (Policy.admit p sw ~dest:3 ~value:1)

let test_lqd_pushes_longest () =
  (* Full buffer: Q0 has 4, Q1 has 2, Q2 has 1, Q3 has 1.  An arrival for
     port 3 pushes out from Q0. *)
  let _, sw = switch ~works:fig2_works ~lengths:[| 4; 2; 1; 1 |] () in
  let p = P_lqd.make (Proc_switch.config sw) in
  Alcotest.check decision "push longest" (Decision.push_out 0)
    (Policy.admit p sw ~dest:3 ~value:1)

let test_lqd_drop_when_own_longest () =
  let _, sw = switch ~works:fig2_works ~lengths:[| 4; 2; 1; 1 |] () in
  let p = P_lqd.make (Proc_switch.config sw) in
  (* Arrival for port 0: virtually 5, still the unique longest: drop. *)
  Alcotest.check decision "drop into own longest" Decision.drop
    (Policy.admit p sw ~dest:0 ~value:1)

let test_lqd_tie_break_largest_work () =
  (* Q1 (work 2) and Q3 (work 3) both have 4 packets; the arrival for port 0
     pushes out from Q3, the tied queue with the larger work. *)
  let _, sw = switch ~works:fig2_works ~lengths:[| 0; 4; 0; 4 |] () in
  let p = P_lqd.make (Proc_switch.config sw) in
  Alcotest.check decision "tie towards larger work"
    (Decision.push_out 3)
    (Policy.admit p sw ~dest:0 ~value:1)

let test_lqd_virtual_add_wins_tie () =
  (* Q0 and Q1 both hold 4; arrival for port 1 makes Q1 virtually 5: push
     from Q1 means drop is wrong - j* = dest, so the packet is dropped. *)
  let _, sw = switch ~works:fig2_works ~lengths:[| 4; 4; 0; 0 |] () in
  let p = P_lqd.make (Proc_switch.config sw) in
  Alcotest.check decision "virtual add makes own queue longest" Decision.drop
    (Policy.admit p sw ~dest:1 ~value:1)

let test_bpd_pushes_biggest_work () =
  (* Full buffer with packets in Q1 (work 2) and Q3 (work 3): an arrival for
     port 0 (work 1) pushes out from Q3. *)
  let _, sw = switch ~works:fig2_works ~lengths:[| 0; 4; 0; 4 |] () in
  let p = P_bpd.make (Proc_switch.config sw) in
  Alcotest.check decision "evict biggest work"
    (Decision.push_out 3)
    (Policy.admit p sw ~dest:0 ~value:1)

let test_bpd_drops_bigger_arrival () =
  (* Buffer full of work-1 packets; a work-3 arrival comes after the victim
     in the work order: drop. *)
  let _, sw = switch ~works:fig2_works ~lengths:[| 8; 0; 0; 0 |] () in
  let p = P_bpd.make (Proc_switch.config sw) in
  Alcotest.check decision "bigger than biggest" Decision.drop
    (Policy.admit p sw ~dest:3 ~value:1);
  (* Equal works: port 1 arrival with only Q2 (same work 2) occupied; (2, 1)
     <= (2, 2) in the sorted order, so it may push out. *)
  let _, sw = switch ~works:fig2_works ~lengths:[| 0; 0; 8; 0 |] () in
  Alcotest.check decision "equal work earlier port pushes"
    (Decision.push_out 2)
    (Policy.admit p sw ~dest:1 ~value:1)

let test_bpd1_protects_last_packet () =
  (* Q3 has exactly one packet, Q1 has the rest: BPD would evict from Q3
     (largest work) but BPD1 must pick Q1. *)
  let _, sw = switch ~works:fig2_works ~lengths:[| 0; 7; 0; 1 |] () in
  let config = Proc_switch.config sw in
  let bpd = P_bpd.make config in
  let bpd1 = P_bpd.make ~protect_last:true config in
  Alcotest.check decision "BPD evicts the single packet"
    (Decision.push_out 3)
    (Policy.admit bpd sw ~dest:0 ~value:1);
  Alcotest.check decision "BPD1 protects it"
    (Decision.push_out 1)
    (Policy.admit bpd1 sw ~dest:0 ~value:1)

let test_bpd1_drops_when_all_queues_singletons () =
  let _, sw = switch ~works:[| 1; 2 |] ~buffer:2 ~lengths:[| 1; 1 |] () in
  let p = P_bpd.make ~protect_last:true (Proc_switch.config sw) in
  Alcotest.check decision "no eligible victim" Decision.drop
    (Policy.admit p sw ~dest:0 ~value:1)

let test_lwd_pushes_most_work () =
  (* Q0: 6 x work 1 = 6 cycles; Q3: 2 x work 3 = 6 cycles; tie on total work
     broken towards the larger per-packet work (Q3). *)
  let _, sw = switch ~works:fig2_works ~lengths:[| 6; 0; 0; 2 |] () in
  let p = P_lwd.make (Proc_switch.config sw) in
  Alcotest.check decision "tie towards larger work"
    (Decision.push_out 3)
    (Policy.admit p sw ~dest:1 ~value:1)

let test_lwd_differs_from_lqd () =
  (* Q0 holds 5 work-1 packets (W=5), Q3 holds 3 work-3 packets (W=9): LQD
     evicts from the longest queue Q0, LWD from the heaviest queue Q3. *)
  let _, sw = switch ~works:fig2_works ~lengths:[| 5; 0; 0; 3 |] () in
  let config = Proc_switch.config sw in
  Alcotest.check decision "LQD evicts longest" (Decision.push_out 0)
    (Policy.admit (P_lqd.make config) sw ~dest:1 ~value:1);
  Alcotest.check decision "LWD evicts most work"
    (Decision.push_out 3)
    (Policy.admit (P_lwd.make config) sw ~dest:1 ~value:1)

let test_lwd_virtual_add () =
  (* Q0: W = 7; Q3: W = 3.  An arrival for port 3 counts its own work 3:
     virtual W_3 = 6 < 7, so Q0 is still the victim. *)
  let _, sw = switch ~works:fig2_works ~buffer:8 ~lengths:[| 7; 0; 0; 1 |] () in
  let p = P_lwd.make (Proc_switch.config sw) in
  Alcotest.check decision "other queue heavier"
    (Decision.push_out 0)
    (Policy.admit p sw ~dest:3 ~value:1);
  (* Make Q3 virtually heaviest: Q0 = 5, Q3 = 1x3 + virtual 3 = 6 > 5. *)
  let _, sw = switch ~works:fig2_works ~buffer:6 ~lengths:[| 5; 0; 0; 1 |] () in
  Alcotest.check decision "own queue virtually heaviest drops" Decision.drop
    (Policy.admit p sw ~dest:3 ~value:1)

let test_lwd_accounts_residual_work () =
  (* Two work-3 packets in Q3 (W=6) vs 5 work-1 in Q0 (W=5); after two
     processing cycles Q3's HOL is down to 1 (W=4) while Q0 is at 3 (W=3).
     An arrival for port 1 must now evict from Q3 only before processing. *)
  let _, sw = switch ~works:fig2_works ~buffer:7 ~lengths:[| 5; 0; 0; 2 |] () in
  let p = P_lwd.make (Proc_switch.config sw) in
  Alcotest.check decision "before processing"
    (Decision.push_out 3)
    (Policy.admit p sw ~dest:1 ~value:1);
  (* Two transmission phases: Q0 transmits 2 (W=3), Q3 works down to W=4. *)
  let on_transmit ~dest:_ ~value:_ ~arrival:_ = () in
  ignore (Proc_switch.transmit_phase sw ~on_transmit);
  ignore (Proc_switch.transmit_phase sw ~on_transmit);
  Alcotest.(check int) "W0" 3 (Proc_switch.queue_work sw 0);
  Alcotest.(check int) "W3" 4 (Proc_switch.queue_work sw 3);
  Alcotest.(check bool) "buffer not full now" false (Proc_switch.is_full sw)

(* Generic policy laws, checked across all registered policies. *)

let random_switch_gen =
  QCheck2.Gen.(
    let* n = int_range 1 4 in
    let* works = array_size (pure n) (int_range 1 5) in
    let* buffer = int_range n 10 in
    let* fill = list_size (int_range 0 20) (int_range 0 (n - 1)) in
    let* dest = int_range 0 (n - 1) in
    pure (works, buffer, fill, dest))

let build (works, buffer, fill, dest) =
  let config = Proc_config.make ~works ~buffer () in
  let sw = Proc_switch.create config in
  List.iter
    (fun d ->
      if not (Proc_switch.is_full sw) then Proc_switch.accept sw ~dest:d ~value:1)
    fill;
  (config, sw, dest)

let prop_all_policies_legal =
  QCheck2.Test.make
    ~name:"every policy returns a legal decision on random states" ~count:500
    random_switch_gen (fun input ->
      let config, sw, dest = build input in
      List.for_all
        (fun (p : Proc_switch.t Policy.t) ->
          match Decision_view.of_decision (Policy.admit p sw ~dest ~value:1) with
          | Decision_view.Accept -> not (Proc_switch.is_full sw)
          | Decision_view.Push_out victim ->
            Proc_switch.is_full sw
            && p.push_out
            && Proc_switch.queue_length sw victim > 0
          | Decision_view.Drop -> true)
        (Policies.proc config))

let prop_push_out_policies_greedy =
  QCheck2.Test.make
    ~name:"push-out policies accept whenever the buffer has space" ~count:500
    random_switch_gen (fun input ->
      let config, sw, dest = build input in
      Proc_switch.is_full sw
      || List.for_all
           (fun (p : Proc_switch.t Policy.t) ->
             (not p.push_out)
             || Policy.admit p sw ~dest ~value:1 = Decision.accept)
           (Policies.proc config))

(* Note: the equivalence is exact only while no packet is partially served
   (fresh buffers, as generated here); mid-stream, LWD's residual-work
   argmax can tie-break differently from LQD's length argmax when two
   queues have equal lengths but differently served head-of-line packets. *)
let prop_lwd_equals_lqd_uniform_work =
  QCheck2.Test.make
    ~name:"LWD coincides with LQD under uniform work (unserved buffers)"
    ~count:500
    QCheck2.Gen.(
      let* n = int_range 1 4 in
      let* work = int_range 1 4 in
      let* buffer = int_range n 8 in
      let* fill = list_size (int_range 0 16) (int_range 0 (n - 1)) in
      let* dest = int_range 0 (n - 1) in
      pure (n, work, buffer, fill, dest))
    (fun (n, work, buffer, fill, dest) ->
      let config = Proc_config.uniform ~n ~work ~buffer () in
      let sw = Proc_switch.create config in
      List.iter
        (fun d ->
          if not (Proc_switch.is_full sw) then
            ignore (Proc_switch.accept sw ~dest:d ~value:1))
        fill;
      Decision.equal
        (Policy.admit (P_lwd.make config) sw ~dest ~value:1)
        (Policy.admit (P_lqd.make config) sw ~dest ~value:1))

let test_registry () =
  let config = Proc_config.contiguous ~k:3 ~buffer:6 () in
  let names = List.map (fun (p : Proc_switch.t Policy.t) -> p.name) (Policies.proc config) in
  Alcotest.(check (list string)) "registry order"
    [ "NHST"; "NEST"; "NHDT"; "LQD"; "BPD"; "BPD1"; "LWD" ]
    names;
  Alcotest.(check bool) "find is case-insensitive" true
    (Option.is_some (Policies.proc_find config "lwd"));
  Alcotest.(check bool) "unknown name" true
    (Option.is_none (Policies.proc_find config "nope"))

let suite =
  [
    Alcotest.test_case "NHST thresholds" `Quick test_nhst_thresholds;
    Alcotest.test_case "NHST admission" `Quick test_nhst_admission;
    Alcotest.test_case "NEST admission" `Quick test_nest_admission;
    Alcotest.test_case "NEST at full buffer" `Quick
      test_nest_respects_full_buffer;
    Alcotest.test_case "NHDT predicate" `Quick test_nhdt_pure_predicate;
    Alcotest.test_case "NHDT policy matches predicate" `Quick
      test_nhdt_admission_matches_predicate;
    Alcotest.test_case "LQD greedy accept" `Quick test_lqd_accepts_when_space;
    Alcotest.test_case "LQD pushes longest" `Quick test_lqd_pushes_longest;
    Alcotest.test_case "LQD drops into own longest" `Quick
      test_lqd_drop_when_own_longest;
    Alcotest.test_case "LQD tie-break" `Quick test_lqd_tie_break_largest_work;
    Alcotest.test_case "LQD virtual add" `Quick test_lqd_virtual_add_wins_tie;
    Alcotest.test_case "BPD pushes biggest" `Quick test_bpd_pushes_biggest_work;
    Alcotest.test_case "BPD work ordering" `Quick test_bpd_drops_bigger_arrival;
    Alcotest.test_case "BPD1 protects last packet" `Quick
      test_bpd1_protects_last_packet;
    Alcotest.test_case "BPD1 drops among singletons" `Quick
      test_bpd1_drops_when_all_queues_singletons;
    Alcotest.test_case "LWD tie towards larger work" `Quick
      test_lwd_pushes_most_work;
    Alcotest.test_case "LWD differs from LQD" `Quick test_lwd_differs_from_lqd;
    Alcotest.test_case "LWD virtual add" `Quick test_lwd_virtual_add;
    Alcotest.test_case "LWD tracks residual work" `Quick
      test_lwd_accounts_residual_work;
    Alcotest.test_case "registry" `Quick test_registry;
    Qc.to_alcotest prop_all_policies_legal;
    Qc.to_alcotest prop_push_out_policies_greedy;
    Qc.to_alcotest prop_lwd_equals_lqd_uniform_work;
  ]
