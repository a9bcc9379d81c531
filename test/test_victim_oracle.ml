(* Two-way differential oracle for victim selection: every push-out policy
   variant, as built by the production registry (one tight pass over the
   switch's aggregate columns), is driven in lockstep with its test-side
   reference (plain O(n) scans through the public accessors, Scan_oracle)
   under fuzzed traffic including mid-run [set_buffer] resizes and
   flushouts.  Both policies see the same switch at every arrival and must
   return the same decision; the switch is re-validated after each
   operation.  Plus pinned tie-break regressions, raising-hook invariant
   checks and the value switch's intra-bucket order. *)

open Smbm_core

(* --- lockstep drivers --- *)

let run_proc_lockstep ~works ~buffer ~speedup ~ops ~prod ~reference =
  let config = Proc_config.make ~works ~buffer ~speedup () in
  let prod : Proc_switch.t Policy.t = prod config and reference : Proc_switch.t Policy.t = reference () in
  let sw = Proc_switch.create config in
  let ok = ref true in
  List.iter
    (fun op ->
      (match op with
      | `Arrival (dest, value) -> (
        let d = Policy.admit prod sw ~dest ~value in
        if not (Decision.equal d (Policy.admit reference sw ~dest ~value)) then
          ok := false;
        match Decision_view.of_decision d with
        | Decision_view.Accept -> Proc_switch.accept sw ~dest ~value
        | Decision_view.Push_out victim ->
          ignore (Proc_switch.push_out sw ~victim : int);
          Proc_switch.accept sw ~dest ~value
        | Decision_view.Drop -> ())
      | `Transmit ->
        ignore
          (Proc_switch.transmit_phase sw
             ~on_transmit:(fun ~dest:_ ~value:_ ~arrival:_ -> ()));
        Proc_switch.advance_slot sw
      | `Set_buffer b ->
        (* Shrinking below occupancy is refused by contract: clamp. *)
        Proc_switch.set_buffer sw (max 1 (max (Proc_switch.occupancy sw) b))
      | `Flush -> ignore (Proc_switch.flush sw));
      Proc_switch.check_invariants sw)
    ops;
  !ok

let run_value_lockstep ~ports ~max_value ~buffer ~speedup ~ops ~prod ~reference =
  let config = Value_config.make ~ports ~max_value ~buffer ~speedup () in
  let prod : Value_switch.t Policy.t = prod config
  and reference : Value_switch.t Policy.t = reference () in
  let sw = Value_switch.create config in
  let ok = ref true in
  List.iter
    (fun op ->
      (match op with
      | `Arrival (dest, value) -> (
        let d = Policy.admit prod sw ~dest ~value in
        if not (Decision.equal d (Policy.admit reference sw ~dest ~value))
        then ok := false;
        match Decision_view.of_decision d with
        | Decision_view.Accept -> Value_switch.accept sw ~dest ~value
        | Decision_view.Push_out victim ->
          ignore (Value_switch.push_out sw ~victim : int);
          Value_switch.accept sw ~dest ~value
        | Decision_view.Drop -> ())
      | `Transmit ->
        ignore
          (Value_switch.transmit_phase sw
             ~on_transmit:(fun ~dest:_ ~value:_ ~arrival:_ -> ()));
        Value_switch.advance_slot sw
      | `Set_buffer b ->
        Value_switch.set_buffer sw (max 1 (max (Value_switch.occupancy sw) b))
      | `Flush -> ignore (Value_switch.flush sw));
      Value_switch.check_invariants sw)
    ops;
  !ok

(* --- every push-out policy variant, production vs reference --- *)

let proc_policies ~buffer ~n =
  let module S = Scan_oracle in
  let rsv r =
    ( Printf.sprintf "RSV(%d)" r,
      (fun c -> P_reserved.make ~reserve:r c),
      S.rsv_policy ~reserve:r )
  in
  let lwd ~protect_last tie =
    ( "LWD",
      (fun c -> P_lwd.make ~protect_last ~tie c),
      fun () -> S.lwd_policy ~protect_last ~tie () )
  in
  [ ("LQD", P_lqd.make, S.lqd_policy) ]
  @ List.concat_map
      (fun protect_last ->
        [
          lwd ~protect_last P_lwd.Largest_work;
          lwd ~protect_last P_lwd.Smallest_work;
          lwd ~protect_last P_lwd.Longest_queue;
          ( "BPD",
            (fun c -> P_bpd.make ~protect_last c),
            S.bpd_policy ~protect_last );
        ])
      [ false; true ]
  @ [ rsv 0; rsv (buffer / n) ]

let value_policies =
  let module S = Scan_oracle in
  [ ("V-LQD", V_lqd.make, S.vlqd_policy) ]
  @ List.concat_map
      (fun protect_last ->
        [
          ( "MVD",
            (fun c -> V_mvd.make ~protect_last c),
            S.mvd_policy ~protect_last );
          ( "MRD",
            (fun c -> V_mrd.make ~protect_last c),
            S.mrd_policy ~protect_last );
        ])
      [ false; true ]

(* Port counts: mostly small switches, plus n = 1 (no port besides the
   destination) and n in {63, 64, 65}: wide switches whose many short
   queues tie on length across dozens of ports.  Those get a larger buffer
   and longer runs, so their queues still fill. *)
let ports_gen =
  QCheck2.Gen.(
    frequency [ (5, int_range 2 6); (1, pure 1); (1, oneofl [ 63; 64; 65 ]) ])

let sizing n =
  if n > 6 then (96, 40, 240) (* max buffer, min ops, max ops *) else (8, 20, 80)

(* Operations over [n] ports, arrival values drawn by [value].  A quarter
   of the arrivals go to the first four ports, so some queues grow long
   even on a wide switch. *)
let ops_gen n ~value =
  let max_buffer, lo, hi = sizing n in
  QCheck2.Gen.(
    let dest =
      frequency [ (3, int_range 0 (n - 1)); (1, int_range 0 (min 3 (n - 1))) ]
    in
    list_size (int_range lo hi)
      (frequency
         [
           (6, map2 (fun d v -> `Arrival (d, v)) dest value);
           (2, pure `Transmit);
           (1, map (fun b -> `Set_buffer b) (int_range 1 (max_buffer + 4)));
           (1, pure `Flush);
         ]))

(* Tie-heavy draws: port works (proc) or values (value) from {1, 2} only,
   so equal lengths, equal works and equal MRD ratios — and with them every
   lazily read tie key — come up constantly. *)
let key_gen ~ties ~max = QCheck2.Gen.int_range 1 (if ties then min 2 max else max)

let prop_proc_policies_lockstep =
  QCheck2.Test.make
    ~name:"proc push-out policies: scan = pass lockstep" ~count:150
    QCheck2.Gen.(
      let* n = ports_gen in
      let* ties = bool in
      let* works = array_size (pure n) (key_gen ~ties ~max:4) in
      let max_buffer, _, _ = sizing n in
      let* buffer = int_range 1 max_buffer in
      let* speedup = int_range 1 2 in
      let* ops = ops_gen n ~value:(pure 1) in
      pure (works, buffer, speedup, ops))
    (fun (works, buffer, speedup, ops) ->
      let n = Array.length works in
      List.for_all
        (fun (_name, prod, reference) ->
          run_proc_lockstep ~works ~buffer ~speedup ~ops ~prod ~reference)
        (proc_policies ~buffer ~n))

let prop_value_policies_lockstep =
  QCheck2.Test.make
    ~name:"value push-out policies: scan = pass lockstep" ~count:150
    QCheck2.Gen.(
      let* ports = ports_gen in
      let* ties = bool in
      let* max_value = Qc.value_levels in
      let max_buffer, _, _ = sizing ports in
      let* buffer = int_range 1 max_buffer in
      let* speedup = int_range 1 2 in
      let* ops = ops_gen ports ~value:(key_gen ~ties ~max:max_value) in
      pure (ports, max_value, buffer, speedup, ops))
    (fun (ports, max_value, buffer, speedup, ops) ->
      List.for_all
        (fun (_name, prod, reference) ->
          run_value_lockstep ~ports ~max_value ~buffer ~speedup ~ops ~prod
            ~reference)
        value_policies)

(* Deterministic soak with k = 130: min/max values cross the 63-level word
   boundaries of the occupancy bitsets over 2000 operations, longer than
   any fuzzed run above.  Periodic resizes exercise slab growth at width. *)
let test_value_soak_wide_k () =
  let ports = 4 and max_value = 130 and buffer = 32 in
  let ops =
    List.init 2000 (fun i ->
        if i mod 97 = 96 then `Set_buffer (16 + (i mod 48))
        else if i mod 16 = 15 then `Transmit
        else `Arrival (i mod ports, (i * 37 mod max_value) + 1))
  in
  List.iter
    (fun (name, prod, reference) ->
      Alcotest.(check bool)
        (name ^ " lockstep, k = 130")
        true
        (run_value_lockstep ~ports ~max_value ~buffer ~speedup:1 ~ops ~prod
           ~reference))
    value_policies

(* --- packed trace slabs = owning columns --- *)

(* [Trace.Compact.pack] only changes memory topology (zero-copy windows of
   one shared off-heap slab per column); content, [equal] and [signature]
   must be invariant, and re-recording a window's replay must reproduce
   the same signature. *)
let prop_compact_pack_signature =
  QCheck2.Test.make
    ~name:"Trace.Compact: packed slab windows = owning columns" ~count:100
    QCheck2.Gen.(
      let arrival =
        map2
          (fun d v -> Arrival.make ~dest:d ~value:v ())
          (int_range 0 5) (int_range 1 9)
      in
      let slot = list_size (int_range 0 5) arrival in
      let trace = map Array.of_list (list_size (int_range 0 12) slot) in
      list_size (int_range 0 5) trace)
    (fun traces ->
      let module C = Smbm_traffic.Trace.Compact in
      let compacts = List.map C.of_slots traces in
      let packed = C.pack compacts in
      List.length packed = List.length compacts
      && List.for_all2
           (fun own win ->
             C.equal own win
             && String.equal (C.signature own) (C.signature win)
             && String.equal (C.signature own)
                  (C.signature
                     (C.of_workload (C.replay win) ~slots:(C.slots win))))
           compacts packed)

(* --- pinned tie-break regressions --- *)

let proc_switch ?speedup ~works ~buffer ~lengths () =
  let config = Proc_config.make ~works ~buffer ?speedup () in
  let sw = Proc_switch.create config in
  Array.iteri
    (fun j l ->
      for _ = 1 to l do
        Proc_switch.accept sw ~dest:j ~value:1
      done)
    lengths;
  sw

let test_lqd_tie_largest_index () =
  (* Equal virtual lengths and equal port works: the >=-scan keeps the
     largest index; the pass must agree. *)
  let sw = proc_switch ~works:[| 1; 1 |] ~buffer:3 ~lengths:[| 2; 1 |] () in
  Alcotest.(check int) "scan" 1 (Scan_oracle.lqd sw ~dest:1);
  Alcotest.(check int) "pass" 1 (P_lqd.select_victim sw ~dest:1);
  (* Virtual add dominates: dest 0 at virtual length 3 wins outright. *)
  Alcotest.(check int) "scan dest 0" 0 (Scan_oracle.lqd sw ~dest:0);
  Alcotest.(check int) "pass dest 0" 0 (P_lqd.select_victim sw ~dest:0)

let test_lwd_tie_largest_index () =
  (* works [|1;1|], lengths [|1;2|], arrival at 0: virtual totals tie at 2,
     per-packet works tie at 1, so the largest index (queue 1) is evicted —
     not the destination. *)
  let sw = proc_switch ~works:[| 1; 1 |] ~buffer:3 ~lengths:[| 1; 2 |] () in
  Alcotest.(check int) "scan" 1
    (Scan_oracle.lwd ~protect_last:false ~tie:P_lwd.Largest_work sw ~dest:0);
  Alcotest.(check int) "pass" 1 (P_lwd.select_victim sw ~dest:0)

let value_switch ~ports ~max_value ~buffer ~queues () =
  let config = Value_config.make ~ports ~max_value ~buffer () in
  let sw = Value_switch.create config in
  Array.iteri
    (fun j values ->
      List.iter (fun v -> Value_switch.accept sw ~dest:j ~value:v) values)
    queues;
  sw

let test_mrd_tie_smaller_min_then_largest_index () =
  (* Equal ratios (both length 2, sum 4): the queue with the smaller minimum
     value wins. *)
  let sw =
    value_switch ~ports:2 ~max_value:4 ~buffer:4
      ~queues:[| [ 3; 1 ]; [ 2; 2 ] |] ()
  in
  Alcotest.(check (option int)) "scan" (Some 0)
    (Scan_oracle.mrd ~protect_last:false sw);
  Alcotest.(check int) "pass" 0 (V_mrd.select_victim sw);
  (* Equal ratios and equal minima: the largest index wins. *)
  let sw =
    value_switch ~ports:2 ~max_value:4 ~buffer:4
      ~queues:[| [ 2; 2 ]; [ 2; 2 ] |] ()
  in
  Alcotest.(check (option int)) "scan tie" (Some 1)
    (Scan_oracle.mrd ~protect_last:false sw);
  Alcotest.(check int) "pass tie" 1 (V_mrd.select_victim sw);
  (* A tie read the incumbent's minimum (ports 0 and 1, ratio 1/2, minimum
     2); port 2 then wins outright (ratio 1, minimum 1) and ties port 3
     (ratio 1, minimum 2).  The tie must compare against port 2's minimum,
     not the one read for the incumbent it replaced. *)
  let sw =
    value_switch ~ports:4 ~max_value:2 ~buffer:5
      ~queues:[| [ 2 ]; [ 2 ]; [ 1 ]; [ 2; 2 ] |] ()
  in
  Alcotest.(check (option int)) "scan after a strict win" (Some 2)
    (Scan_oracle.mrd ~protect_last:false sw);
  Alcotest.(check int) "pass after a strict win" 2 (V_mrd.select_victim sw)

let test_min_value_port_pinned_tie () =
  (* Several queues hold the buffer minimum: the longest one wins, then the
     smallest port index — and the reported port always holds the reported
     minimum. *)
  let sw =
    value_switch ~ports:3 ~max_value:9 ~buffer:6
      ~queues:[| [ 1 ]; [ 9; 1 ]; [ 1 ] |] ()
  in
  Alcotest.(check int) "min value" 1 (Value_switch.min_value_or sw ~default:0);
  Alcotest.(check int) "longest min-holder wins" 1
    (Scan_oracle.min_value_port sw);
  Alcotest.(check int) "port holds the minimum" 1
    (Value_switch.queue_min_value_or sw 1 ~default:0);
  (* Equal lengths: the smallest index wins. *)
  let sw =
    value_switch ~ports:3 ~max_value:9 ~buffer:6
      ~queues:[| [ 1 ]; [ 1 ]; [ 1 ] |] ()
  in
  Alcotest.(check int) "smallest index among equals" 0
    (Scan_oracle.min_value_port sw);
  (* Empty switch: no port. *)
  let sw =
    value_switch ~ports:2 ~max_value:4 ~buffer:4 ~queues:[| []; [] |] ()
  in
  Alcotest.(check int) "empty" (-1) (Scan_oracle.min_value_port sw)

(* --- raising hooks leave invariants intact --- *)

let test_proc_switch_raising_hook () =
  let sw =
    proc_switch ~speedup:2 ~works:[| 2; 3 |] ~buffer:4 ~lengths:[| 2; 2 |] ()
  in
  (try
     ignore
       (Proc_switch.transmit_phase sw
          ~on_transmit:(fun ~dest:_ ~value:_ ~arrival:_ -> raise Exit));
     Alcotest.fail "hook exception swallowed"
   with Exit -> ());
  Proc_switch.check_invariants sw;
  Alcotest.(check int) "occupancy" 3 (Proc_switch.occupancy sw);
  (* Victim selection still answers correctly off the live columns. *)
  Alcotest.(check int) "post-raise victim" 1 (P_lqd.select_victim sw ~dest:1);
  (* And draining the rest keeps everything consistent. *)
  let rec drain () =
    if Proc_switch.occupancy sw > 0 then begin
      ignore
        (Proc_switch.transmit_phase sw
           ~on_transmit:(fun ~dest:_ ~value:_ ~arrival:_ -> ()));
      Proc_switch.check_invariants sw;
      drain ()
    end
  in
  drain ();
  Alcotest.(check int) "all work drained" 0 (Proc_switch.total_occupied_work sw)

let test_value_switch_raising_hook () =
  let sw =
    value_switch ~ports:2 ~max_value:4 ~buffer:6
      ~queues:[| [ 4; 2 ]; [ 3; 1 ] |] ()
  in
  (try
     ignore
       (Value_switch.transmit_phase sw
          ~on_transmit:(fun ~dest:_ ~value:_ ~arrival:_ -> raise Exit));
     Alcotest.fail "hook exception swallowed"
   with Exit -> ());
  Value_switch.check_invariants sw;
  Alcotest.(check int) "occupancy" 3 (Value_switch.occupancy sw);
  (* The value histogram survived the interrupted phase. *)
  Alcotest.(check int) "min value" 1 (Value_switch.min_value_or sw ~default:0);
  Alcotest.(check int) "min port" 1 (Scan_oracle.min_value_port sw)

(* --- intra-bucket order contract --- *)

let test_value_switch_intra_bucket_order () =
  let sw = value_switch ~ports:1 ~max_value:5 ~buffer:8 ~queues:[| [] |] () in
  let ids () = Ports.ids (Ports.value sw 0) in
  let transmit_one () =
    ignore
      (Value_switch.transmit_phase sw
         ~on_transmit:(fun ~dest:_ ~value:_ ~arrival:_ -> ()))
  in
  (* Three packets of equal value, ids 0, 1, 2. *)
  List.iter (fun v -> Value_switch.accept sw ~dest:0 ~value:v) [ 3; 3; 3 ];
  (* push-out evicts the *youngest* of the minimum bucket: push-out prefers
     discarding the most recent arrival. *)
  Alcotest.(check int) "push-out value" 3 (Value_switch.push_out sw ~victim:0);
  Alcotest.(check (list int)) "youngest evicted" [ 0; 1 ] (ids ());
  (* transmission takes the *oldest* of the maximum bucket: FIFO order among
     equal values on the wire. *)
  transmit_one ();
  Alcotest.(check (list int)) "oldest transmitted" [ 1 ] (ids ());
  transmit_one ();
  (* Mixed values, ids 3..6: min/max pick the right buckets and keep
     per-bucket order. *)
  List.iter (fun v -> Value_switch.accept sw ~dest:0 ~value:v) [ 2; 5; 2; 5 ];
  Alcotest.(check (list int)) "transmission order" [ 4; 6; 3; 5 ] (ids ());
  ignore (Value_switch.push_out sw ~victim:0 : int);
  Alcotest.(check (list int)) "min bucket youngest" [ 4; 6; 3 ] (ids ());
  transmit_one ();
  Alcotest.(check (list int)) "max bucket oldest" [ 6; 3 ] (ids ())

let suite =
  [
    Qc.to_alcotest prop_proc_policies_lockstep;
    Qc.to_alcotest prop_value_policies_lockstep;
    Qc.to_alcotest prop_compact_pack_signature;
    Alcotest.test_case "value soak, k crosses bitset word" `Slow
      test_value_soak_wide_k;
    Alcotest.test_case "LQD tie keeps largest index" `Quick
      test_lqd_tie_largest_index;
    Alcotest.test_case "LWD tie keeps largest index" `Quick
      test_lwd_tie_largest_index;
    Alcotest.test_case "MRD equal-ratio ties" `Quick
      test_mrd_tie_smaller_min_then_largest_index;
    Alcotest.test_case "min_value_port pinned tie" `Quick
      test_min_value_port_pinned_tie;
    Alcotest.test_case "Proc_switch raising hook (flat)" `Quick
      test_proc_switch_raising_hook;
    Alcotest.test_case "Value_switch raising hook (flat)" `Quick
      test_value_switch_raising_hook;
    Alcotest.test_case "Value_switch intra-bucket order" `Quick
      test_value_switch_intra_bucket_order;
  ]
