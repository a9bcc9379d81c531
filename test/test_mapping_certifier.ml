(* The executable Fig. 3 mapping routine: on every tested input the
   certifier must maintain Lemma 8's invariants with zero violations and
   never charge more than two OPT packets to one LWD packet — a
   machine-checked run of Theorem 7's proof on that input. *)

open Smbm_core
open Smbm_traffic
open Smbm_analysis

let greedy =
  Policy.make ~name:"greedy" ~push_out:false (fun sw ~dest:_ ~value:_ ->
      if Proc_switch.is_full sw then Decision.drop else Decision.accept)

let quota quotas =
  Policy.make ~name:"quota" ~push_out:false (fun sw ~dest ~value:_ ->
      if Proc_switch.is_full sw then Decision.drop
      else if Proc_switch.queue_length sw dest < quotas.(dest) then
        Decision.accept
      else Decision.drop)

let expect_clean name (r : Mapping_certifier.report) =
  if r.violation_count > 0 then
    Alcotest.failf "%s: %d violations, first: %s" name r.violation_count
      (match r.violations with v :: _ -> v | [] -> "?");
  if r.max_images > 2 then
    Alcotest.failf "%s: a LWD packet absorbed %d OPT packets" name r.max_images;
  if r.opt_transmitted > 2 * r.lwd_transmitted then
    Alcotest.failf "%s: 2-competitiveness violated (%d vs %d)" name
      r.opt_transmitted r.lwd_transmitted

let test_speedup_rejected () =
  let config = Proc_config.contiguous ~k:2 ~buffer:4 ~speedup:2 () in
  match
    Mapping_certifier.run ~config ~opponent:greedy
      ~workload:(Workload.of_slots [||]) ~slots:1 ()
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "speedup 2 accepted"

let test_pushout_opponent_reported () =
  let config = Proc_config.contiguous ~k:2 ~buffer:1 () in
  let rogue = P_lqd.make config in
  let trace slot =
    if slot = 0 then [ Arrival.make ~dest:1 (); Arrival.make ~dest:0 () ]
    else []
  in
  let r =
    Mapping_certifier.run ~config ~opponent:rogue
      ~workload:(Workload.of_fun trace) ~slots:3 ()
  in
  Alcotest.(check bool) "push-out flagged" true (r.violation_count > 0)

let test_greedy_on_mmpp () =
  let config = Proc_config.contiguous ~k:8 ~buffer:32 () in
  let workload =
    Scenario.proc_workload
      ~mmpp:{ Scenario.default_mmpp with sources = 30 }
      ~config ~load:2.0 ~seed:3 ()
  in
  let r =
    Mapping_certifier.run ~config ~opponent:greedy
      ~workload ~slots:2_000 ()
  in
  expect_clean "greedy/MMPP" r;
  Alcotest.(check bool) "some pressure was exercised" true
    (r.max_images = 2 && r.opt_transmitted > 0)

let test_quota_on_mmpp () =
  let config = Proc_config.contiguous ~k:6 ~buffer:24 () in
  let workload =
    Scenario.proc_workload
      ~mmpp:{ Scenario.default_mmpp with sources = 30 }
      ~config ~load:2.5 ~seed:9 ()
  in
  (* A quota opponent that hoards the buffer for the two cheapest ports -
     adversarial in spirit (like the proofs' scripted OPTs). *)
  let r =
    Mapping_certifier.run ~config
      ~opponent:(quota [| 20; 4; 0; 0; 0; 0 |])
      ~workload ~slots:2_000 ()
  in
  expect_clean "quota/MMPP" r

let test_thm6_construction () =
  (* The paper's own worst-case input for LWD, with the proof's scripted
     OPT as the opponent: the mapping must survive its full episode. *)
  let buffer = 120 in
  let config = Proc_config.make ~works:[| 1; 2; 3; 6 |] ~buffer () in
  let burst =
    List.concat
      [
        List.init buffer (fun _ -> Arrival.make ~dest:0 ());
        List.init (buffer / 4) (fun _ -> Arrival.make ~dest:1 ());
        List.init (buffer / 6) (fun _ -> Arrival.make ~dest:2 ());
        List.init (buffer / 12) (fun _ -> Arrival.make ~dest:3 ());
      ]
  in
  let trace slot =
    let t = slot mod buffer in
    if t = 0 then burst
    else
      List.filteri
        (fun i _ -> i > 0 && t mod [| 1; 2; 3; 6 |].(i) = 0)
        [ Arrival.make ~dest:0 (); Arrival.make ~dest:1 ();
          Arrival.make ~dest:2 (); Arrival.make ~dest:3 () ]
  in
  let opponent =
    quota [| buffer - 3; 1; 1; 1 |]
  in
  let r =
    Mapping_certifier.run ~config ~opponent ~workload:(Workload.of_fun trace)
      ~slots:(2 * buffer) ()
  in
  expect_clean "Theorem 6 construction" r;
  (* The construction pushes OPT visibly ahead - the mapping explains how
     far ahead it can get. *)
  Alcotest.(check bool) "opponent ahead but within 2x" true
    (r.opt_transmitted > r.lwd_transmitted)

let test_lemma8_gap_reproduced () =
  (* The minimal counterexample to the paper's literal Lemma 8 invariant
     (found mechanically by this certifier): two ports with works {1, 2},
     B = 2, a greedy opponent.  LWD's push-out empties Q1, the opponent
     keeps serving its copy and gets a cycle ahead; when both accept fresh
     work-2 packets in slot 1, the positional pair has OPT latency 1 <
     LWD latency 2.  The repaired accounting (keep the A1 assignment)
     stays sound: zero violations, cap of two respected. *)
  let config = Proc_config.contiguous ~k:2 ~buffer:2 () in
  let trace_arr =
    [|
      [ Arrival.make ~dest:1 (); Arrival.make ~dest:0 (); Arrival.make ~dest:0 () ];
      [ Arrival.make ~dest:1 (); Arrival.make ~dest:1 () ];
      [ Arrival.make ~dest:0 (); Arrival.make ~dest:0 ();
        Arrival.make ~dest:1 (); Arrival.make ~dest:1 () ];
      [ Arrival.make ~dest:1 (); Arrival.make ~dest:0 (); Arrival.make ~dest:1 () ];
    |]
  in
  let r =
    Mapping_certifier.run ~config ~opponent:greedy
      ~workload:(Workload.of_slots trace_arr) ~slots:12 ()
  in
  expect_clean "Lemma 8 gap trace" r;
  Alcotest.(check bool)
    "the literal positional invariant fails on this trace" true
    (r.strict_a0_mismatches > 0)

let prop_random_traces_random_quotas =
  QCheck2.Test.make
    ~name:"mapping routine survives random traces and quota opponents"
    ~count:120
    QCheck2.Gen.(
      let* k = int_range 1 4 in
      let* buffer = int_range k 8 in
      let* quotas = array_size (pure k) (int_range 0 8) in
      let* dests =
        list_size (int_range 1 15)
          (list_size (int_range 0 4) (int_range 0 (k - 1)))
      in
      pure (k, buffer, quotas, dests))
    (fun (k, buffer, quotas, dests) ->
      let config = Proc_config.contiguous ~k ~buffer () in
      let trace_arr =
        Array.of_list
          (List.map (List.map (fun d -> Arrival.make ~dest:d ())) dests)
      in
      let r =
        Mapping_certifier.run ~config ~opponent:(quota quotas)
          ~workload:(Workload.of_slots trace_arr)
          ~slots:(Array.length trace_arr + (buffer * k) + k)
          ()
      in
      r.violation_count = 0
      && r.max_images <= 2
      && r.opt_transmitted <= 2 * r.lwd_transmitted)

let suite =
  [
    Alcotest.test_case "speedup rejected" `Quick test_speedup_rejected;
    Alcotest.test_case "push-out opponent flagged" `Quick
      test_pushout_opponent_reported;
    Alcotest.test_case "greedy opponent on MMPP" `Slow test_greedy_on_mmpp;
    Alcotest.test_case "hoarding quota opponent on MMPP" `Slow
      test_quota_on_mmpp;
    Alcotest.test_case "Theorem 6 construction" `Quick test_thm6_construction;
    Alcotest.test_case "Lemma 8 gap reproduced, repair sound" `Quick
      test_lemma8_gap_reproduced;
    Qc.to_alcotest prop_random_traces_random_quotas;
  ]
