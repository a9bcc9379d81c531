open Smbm_core

(* Build a value switch and fill it; [fill] is a list of (dest, value). *)
let switch ?(ports = 4) ?(max_value = 4) ?(buffer = 8) ~fill () =
  let config = Value_config.make ~ports ~max_value ~buffer () in
  let sw = Value_switch.create config in
  List.iter (fun (dest, value) -> ignore (Value_switch.accept sw ~dest ~value)) fill;
  (config, sw)

let decision = Alcotest.testable Decision.pp Decision.equal

(* The paper's Fig. 4 setting: maximal value 4, four output ports, shared
   buffer of size 8. *)

let test_greedy () =
  let config, sw = switch ~fill:[ (0, 1) ] () in
  let p = V_greedy.make config in
  Alcotest.check decision "accept with space" Decision.accept
    (Policy.admit p sw ~dest:1 ~value:1);
  let config, sw =
    switch ~fill:(List.init 8 (fun i -> (i mod 4, 1))) ()
  in
  let p = V_greedy.make config in
  Alcotest.check decision "drop when full" Decision.drop
    (Policy.admit p sw ~dest:0 ~value:4)

let test_nest () =
  let config, sw = switch ~fill:[ (0, 1); (0, 2); (1, 3) ] () in
  let p = V_nest.make config in
  (* B/n = 2 *)
  Alcotest.check decision "at share" Decision.drop
    (Policy.admit p sw ~dest:0 ~value:4);
  Alcotest.check decision "below share" Decision.accept
    (Policy.admit p sw ~dest:1 ~value:1)

let test_nhst_reversed_thresholds () =
  (* 4 ports with value = port + 1; reversed shares (k - v + 1) = 4,3,2,1 and
     Z = 1/4 + 1/3 + 1/2 + 1 = 25/12; threshold of the value-4 port is
     B / (1 * Z) = 96/25 - the most valuable port gets the largest share. *)
  let port_value = [| 1; 2; 3; 4 |] in
  Alcotest.(check (float 1e-9)) "value-4 port share" (96.0 /. 25.0)
    (V_nhst.threshold ~reversed:true ~port_value ~buffer:8 3);
  Alcotest.(check (float 1e-9)) "value-1 port share" (24.0 /. 25.0)
    (V_nhst.threshold ~reversed:true ~port_value ~buffer:8 0);
  (* Direct thresholds mirror the processing model: value-1 port largest. *)
  Alcotest.(check (float 1e-9)) "direct value-1 port share" (96.0 /. 25.0)
    (V_nhst.threshold ~reversed:false ~port_value ~buffer:8 0)

let test_nhst_policy () =
  let config, sw = switch ~fill:[ (3, 4); (3, 4); (3, 4); (0, 1) ] () in
  let p = V_nhst.make ~port_value:[| 1; 2; 3; 4 |] config in
  (* Port 3 threshold 3.84: at length 3 accept, at 4 drop. *)
  Alcotest.check decision "below" Decision.accept
    (Policy.admit p sw ~dest:3 ~value:4);
  ignore (Value_switch.accept sw ~dest:3 ~value:4);
  Alcotest.check decision "above" Decision.drop
    (Policy.admit p sw ~dest:3 ~value:4);
  (* Port 0 threshold 0.96: one packet is already over. *)
  Alcotest.check decision "low-value port starved" Decision.drop
    (Policy.admit p sw ~dest:0 ~value:1)

let test_lqd_pushes_longest_min () =
  (* Full: Q0 = [4;3;2;1] (4 packets), Q1 = [2;2], Q2 = [3], Q3 = [4].
     Arrival for port 2: Q0 longest, evict its min. *)
  let config, sw =
    switch
      ~fill:[ (0, 4); (0, 3); (0, 2); (0, 1); (1, 2); (1, 2); (2, 3); (3, 4) ]
      ()
  in
  let p = V_lqd.make config in
  Alcotest.check decision "push from longest" (Decision.push_out 0)
    (Policy.admit p sw ~dest:2 ~value:1)

let test_lqd_own_queue_replace () =
  (* Q0 holds the whole buffer; an arrival for port 0 with a higher value
     replaces Q0's minimum; with value 1 (not above min) it is dropped. *)
  let config, sw =
    switch ~fill:(List.init 8 (fun i -> (0, 1 + (i mod 2)))) ()
  in
  let p = V_lqd.make config in
  Alcotest.check decision "better packet replaces own min"
    (Decision.push_out 0)
    (Policy.admit p sw ~dest:0 ~value:4);
  Alcotest.check decision "equal-or-worse packet dropped" Decision.drop
    (Policy.admit p sw ~dest:0 ~value:1)

let test_lqd_tie_break_cheaper_min () =
  (* Q1 = [4;4], Q2 = [4;1]: both length 2 and an arrival for port 0 sees
     both at virtual length 2 vs its own 1: victim is Q2 (cheaper min). *)
  let config, sw =
    switch ~buffer:4 ~fill:[ (1, 4); (1, 4); (2, 4); (2, 1) ] ()
  in
  let p = V_lqd.make config in
  Alcotest.check decision "tie towards cheaper eviction"
    (Decision.push_out 2)
    (Policy.admit p sw ~dest:0 ~value:3)

let test_mvd_basic () =
  (* Full buffer; minimum value 1 lives in Q1. *)
  let config, sw =
    switch ~buffer:4 ~fill:[ (0, 4); (1, 1); (2, 3); (3, 2) ] ()
  in
  let p = V_mvd.make config in
  Alcotest.check decision "more valuable arrival evicts min"
    (Decision.push_out 1)
    (Policy.admit p sw ~dest:0 ~value:3);
  Alcotest.check decision "equal value dropped" Decision.drop
    (Policy.admit p sw ~dest:0 ~value:1)

let test_mvd_tie_break_longest () =
  (* Minimum value 1 in Q0 (length 1) and Q2 (length 3): evict from Q2. *)
  let config, sw =
    switch ~buffer:4 ~fill:[ (0, 1); (2, 1); (2, 2); (2, 4) ] ()
  in
  let p = V_mvd.make config in
  Alcotest.check decision "longest min queue"
    (Decision.push_out 2)
    (Policy.admit p sw ~dest:1 ~value:4)

let test_mvd1_protects_singletons () =
  (* Min value 1 is alone in Q0; MVD1 must evict the cheapest packet among
     queues with >= 2 packets, i.e. Q2's 2. *)
  let config, sw =
    switch ~buffer:4 ~fill:[ (0, 1); (2, 2); (2, 4); (3, 3) ] ()
  in
  let mvd = V_mvd.make config in
  let mvd1 = V_mvd.make ~protect_last:true config in
  Alcotest.check decision "MVD takes the singleton"
    (Decision.push_out 0)
    (Policy.admit mvd sw ~dest:1 ~value:4);
  Alcotest.check decision "MVD1 spares it"
    (Decision.push_out 2)
    (Policy.admit mvd1 sw ~dest:1 ~value:4);
  (* All queues singletons: MVD1 drops. *)
  let config, sw =
    switch ~buffer:4 ~fill:[ (0, 1); (1, 1); (2, 1); (3, 1) ] ()
  in
  let mvd1 = V_mvd.make ~protect_last:true config in
  Alcotest.check decision "no eligible victim" Decision.drop
    (Policy.admit mvd1 sw ~dest:0 ~value:4)

let test_mrd_ratio_selection () =
  (* Q0 = four 1s: ratio 4/1 = 4; Q3 = four 4s: ratio 4/4 = 1.
     MRD evicts from Q0 when a better packet arrives. *)
  let config, sw =
    switch ~fill:[ (0, 1); (0, 1); (0, 1); (0, 1); (3, 4); (3, 4); (3, 4); (3, 4) ]
      ()
  in
  let p = V_mrd.make config in
  Alcotest.check decision "max ratio queue evicted"
    (Decision.push_out 0)
    (Policy.admit p sw ~dest:1 ~value:2);
  (* An arrival equal to the buffer minimum still pushes out (the behaviour
     that makes MRD emulate LQD under unit values). *)
  Alcotest.check decision "equal value pushes out"
    (Decision.push_out 0)
    (Policy.admit p sw ~dest:1 ~value:1)

let test_mrd_drops_below_min () =
  (* Buffer minimum is 2; a value-1 arrival is strictly worse: drop. *)
  let config, sw = switch ~buffer:2 ~fill:[ (0, 2); (1, 3) ] () in
  let p = V_mrd.make config in
  Alcotest.check decision "worse than min" Decision.drop
    (Policy.admit p sw ~dest:2 ~value:1)

let test_mrd_drop_condition_is_global_min () =
  (* The push-out *condition* looks at the global minimum but the *victim*
     is the ratio-maximal queue: Q0 = [2;2;2;2] (ratio 16/8 = 2) beats
     Q1 = [1] (ratio 1), so the arrival admitted thanks to Q1's cheap packet
     actually evicts one of Q0's 2s. *)
  let config, sw =
    switch ~buffer:5 ~fill:[ (0, 2); (0, 2); (0, 2); (0, 2); (1, 1) ] ()
  in
  let p = V_mrd.make config in
  Alcotest.check decision "condition global, victim ratio-maximal"
    (Decision.push_out 0)
    (Policy.admit p sw ~dest:2 ~value:3)

let test_mrd_selects_higher_ratio () =
  (* Q0 = [1;1] ratio 2/1 = 2; Q1 = [4;4] ratio 2/4 = 0.5. *)
  let config, sw = switch ~buffer:4 ~fill:[ (0, 1); (0, 1); (1, 4); (1, 4) ] () in
  let p = V_mrd.make config in
  Alcotest.check decision "higher ratio wins" (Decision.push_out 0)
    (Policy.admit p sw ~dest:2 ~value:3)

(* Generic laws. *)

let random_state_gen =
  QCheck2.Gen.(
    let* ports = int_range 1 4 in
    let* k = int_range 1 5 in
    let* buffer = int_range ports 8 in
    let* fill =
      list_size (int_range 0 16) (pair (int_range 0 (ports - 1)) (int_range 1 k))
    in
    let* dest = int_range 0 (ports - 1) in
    let* value = int_range 1 k in
    pure (ports, k, buffer, fill, dest, value))

let build (ports, k, buffer, fill, dest, value) =
  let config = Value_config.make ~ports ~max_value:k ~buffer () in
  let sw = Value_switch.create config in
  List.iter
    (fun (d, v) ->
      if not (Value_switch.is_full sw) then
        ignore (Value_switch.accept sw ~dest:d ~value:v))
    fill;
  (config, sw, dest, value)

let all_policies config =
  Policies.value_port
    ~port_value:(Array.init (Value_config.n config) (fun i ->
        1 + (i mod Value_config.k config)))
    config

let prop_all_policies_legal =
  QCheck2.Test.make
    ~name:"every value policy returns a legal decision on random states"
    ~count:500 random_state_gen (fun input ->
      let config, sw, dest, value = build input in
      List.for_all
        (fun (p : Value_switch.t Policy.t) ->
          match Decision_view.of_decision (Policy.admit p sw ~dest ~value) with
          | Decision_view.Accept -> not (Value_switch.is_full sw)
          | Decision_view.Push_out victim ->
            Value_switch.is_full sw
            && p.push_out
            && Value_switch.queue_length sw victim > 0
          | Decision_view.Drop -> true)
        (all_policies config))

let prop_push_out_policies_greedy =
  QCheck2.Test.make
    ~name:"value push-out policies accept whenever there is space" ~count:500
    random_state_gen (fun input ->
      let config, sw, dest, value = build input in
      Value_switch.is_full sw
      || List.for_all
           (fun (p : Value_switch.t Policy.t) ->
             (not p.push_out)
             || Policy.admit p sw ~dest ~value = Decision.accept)
           (all_policies config))

(* The queue-length vector that results from applying a decision to the
   current lengths. *)
let resulting_lengths sw ~dest decision =
  let lengths =
    Array.init (Value_switch.n sw) (Value_switch.queue_length sw)
  in
  (match Decision_view.of_decision decision with
  | Decision_view.Accept -> lengths.(dest) <- lengths.(dest) + 1
  | Decision_view.Push_out victim ->
    lengths.(victim) <- lengths.(victim) - 1;
    lengths.(dest) <- lengths.(dest) + 1
  | Decision_view.Drop -> ());
  lengths

let prop_mrd_emulates_lqd_unit_values =
  QCheck2.Test.make
    ~name:"MRD emulates LQD under unit values (up to tie-breaking)"
    ~count:500
    QCheck2.Gen.(
      let* ports = int_range 1 4 in
      let* buffer = int_range ports 8 in
      let* fill = list_size (int_range 0 16) (int_range 0 (ports - 1)) in
      let* dest = int_range 0 (ports - 1) in
      pure (ports, buffer, fill, dest))
    (fun (ports, buffer, fill, dest) ->
      let config = Value_config.make ~ports ~max_value:1 ~buffer () in
      let sw = Value_switch.create config in
      List.iter
        (fun d ->
          if not (Value_switch.is_full sw) then
            ignore (Value_switch.accept sw ~dest:d ~value:1))
        fill;
      let lengths = Array.init ports (Value_switch.queue_length sw) in
      let max_len = Array.fold_left max 0 lengths in
      let tied =
        Array.fold_left (fun n l -> if l = max_len then n + 1 else n) 0 lengths
        > 1
        || lengths.(dest) + 1 = max_len
      in
      tied
      ||
      let mrd =
        resulting_lengths sw ~dest
          (Policy.admit (V_mrd.make config) sw ~dest ~value:1)
      and lqd =
        resulting_lengths sw ~dest
          (Policy.admit (V_lqd.make config) sw ~dest ~value:1)
      in
      mrd = lqd)

let prop_mvd_never_evicts_better =
  QCheck2.Test.make
    ~name:"MVD only pushes out strictly less valuable packets" ~count:500
    random_state_gen (fun input ->
      let config, sw, dest, value = build input in
      match Decision_view.of_decision (Policy.admit (V_mvd.make config) sw ~dest ~value) with
      | Decision_view.Push_out victim ->
        let m = Value_switch.queue_min_value_or sw victim ~default:0 in
        m > 0 && m < value && Value_switch.min_value_or sw ~default:0 = m
      | Decision_view.Accept | Decision_view.Drop -> true)

let test_registry () =
  let config = Value_config.make ~ports:4 ~max_value:4 ~buffer:8 () in
  let names =
    List.map (fun (p : Value_switch.t Policy.t) -> p.name) (Policies.value_uniform config)
  in
  Alcotest.(check (list string)) "uniform registry"
    [ "Greedy"; "NEST"; "LQD"; "MVD"; "MVD1"; "MRD" ]
    names;
  let port_names =
    List.map (fun (p : Value_switch.t Policy.t) -> p.name)
      (Policies.value_port ~port_value:[| 1; 2; 3; 4 |] config)
  in
  Alcotest.(check bool) "port registry adds NHST" true
    (List.mem "NHST" port_names);
  Alcotest.(check bool) "find" true
    (Option.is_some (Policies.value_find config "mrd"))

let suite =
  [
    Alcotest.test_case "greedy baseline" `Quick test_greedy;
    Alcotest.test_case "NEST" `Quick test_nest;
    Alcotest.test_case "NHST reversed thresholds" `Quick
      test_nhst_reversed_thresholds;
    Alcotest.test_case "NHST policy" `Quick test_nhst_policy;
    Alcotest.test_case "LQD pushes longest" `Quick test_lqd_pushes_longest_min;
    Alcotest.test_case "LQD own-queue replacement" `Quick
      test_lqd_own_queue_replace;
    Alcotest.test_case "LQD tie-break" `Quick test_lqd_tie_break_cheaper_min;
    Alcotest.test_case "MVD basics" `Quick test_mvd_basic;
    Alcotest.test_case "MVD tie-break" `Quick test_mvd_tie_break_longest;
    Alcotest.test_case "MVD1 protects singletons" `Quick
      test_mvd1_protects_singletons;
    Alcotest.test_case "MRD ratio selection" `Quick test_mrd_ratio_selection;
    Alcotest.test_case "MRD global-min drop condition" `Quick
      test_mrd_drop_condition_is_global_min;
    Alcotest.test_case "MRD drops below min" `Quick test_mrd_drops_below_min;
    Alcotest.test_case "MRD higher ratio wins" `Quick
      test_mrd_selects_higher_ratio;
    Alcotest.test_case "registry" `Quick test_registry;
    Qc.to_alcotest prop_all_policies_legal;
    Qc.to_alcotest prop_push_out_policies_greedy;
    Qc.to_alcotest prop_mrd_emulates_lqd_unit_values;
    Qc.to_alcotest prop_mvd_never_evicts_better;
  ]
