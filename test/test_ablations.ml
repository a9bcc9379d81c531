(* Tests for the ablation variants that extend the paper's policy set:
   LWD1 / tie-breaking variants, MRD1, and the random-eviction baseline. *)

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

let test_lwd1_protects_last_packet () =
  (* Q3 holds one work-3 packet (W=3); Q0 holds 5 work-1 (W=5).  Make Q3 the
     LWD victim by partially draining Q0... simpler: Q3 one packet with the
     largest W: works [1; 6], Q1 = 1 x 6 (W=6), Q0 = 1 x 1 (W=1), B=2.
     Arrival for port 0: LWD evicts Q1's only packet; LWD1 must not. *)
  let _, sw = switch ~buffer:2 ~works:[| 1; 6 |] ~lengths:[| 1; 1 |] () in
  let config = Proc_switch.config sw in
  Alcotest.check decision "LWD evicts the singleton"
    (Decision.push_out 1)
    (Policy.admit (P_lwd.make config) sw ~dest:0 ~value:1);
  Alcotest.check decision "LWD1 drops instead" Decision.drop
    (Policy.admit (P_lwd.make ~protect_last:true config) sw ~dest:0 ~value:1)

let test_lwd1_still_pushes_long_queues () =
  let _, sw = switch ~buffer:4 ~works:[| 1; 6 |] ~lengths:[| 2; 2 |] () in
  let config = Proc_switch.config sw in
  Alcotest.check decision "eligible victim found"
    (Decision.push_out 1)
    (Policy.admit (P_lwd.make ~protect_last:true config) sw ~dest:0 ~value:1)

let test_lwd_tie_variants_differ () =
  (* Q0: 6 x work 1 (W=6), Q3: 2 x work 3 (W=6): equal work, so the tie rule
     decides.  Largest-work picks Q3, smallest-work picks Q0, longest-queue
     picks Q0 (6 > 2). *)
  let _, sw = switch ~works:[| 1; 2; 2; 3 |] ~lengths:[| 6; 0; 0; 2 |] () in
  let config = Proc_switch.config sw in
  Alcotest.check decision "largest work (paper)"
    (Decision.push_out 3)
    (Policy.admit (P_lwd.make config) sw ~dest:1 ~value:1);
  Alcotest.check decision "smallest work"
    (Decision.push_out 0)
    (Policy.admit (P_lwd.make ~tie:P_lwd.Smallest_work config) sw ~dest:1 ~value:1);
  Alcotest.check decision "longest queue"
    (Decision.push_out 0)
    (Policy.admit (P_lwd.make ~tie:P_lwd.Longest_queue config) sw ~dest:1 ~value:1)

let test_mrd1_protects_singletons () =
  let config = Value_config.make ~ports:3 ~max_value:9 ~buffer:3 () in
  let sw = Value_switch.create config in
  (* Q0 = [1] is both ratio-maximal (1/1) and a singleton; Q1 = [9; 9]
     (ratio 2/9). *)
  ignore (Value_switch.accept sw ~dest:0 ~value:1);
  ignore (Value_switch.accept sw ~dest:1 ~value:9);
  ignore (Value_switch.accept sw ~dest:1 ~value:9);
  Alcotest.check decision "MRD evicts the singleton"
    (Decision.push_out 0)
    (Policy.admit (V_mrd.make config) sw ~dest:2 ~value:5);
  Alcotest.check decision "MRD1 falls back to an eligible queue"
    (Decision.push_out 1)
    (Policy.admit (V_mrd.make ~protect_last:true config) sw ~dest:2
       ~value:5)

let test_rand_legal_decisions () =
  let config = Proc_config.contiguous ~k:3 ~buffer:4 () in
  let policy = P_rand.make ~seed:7 config in
  let sw = Proc_switch.create config in
  (* Not full: always accept. *)
  Alcotest.check decision "greedy accept" Decision.accept
    (Policy.admit policy sw ~dest:0 ~value:1);
  for _ = 1 to 4 do
    ignore (Proc_switch.accept sw ~dest:2 ~value:1)
  done;
  for _ = 1 to 50 do
    match Decision_view.of_decision (Policy.admit policy sw ~dest:1 ~value:1) with
    | Decision_view.Accept -> Alcotest.fail "accept on full buffer"
    | Decision_view.Push_out victim ->
      if Proc_switch.queue_length sw victim = 0 then
        Alcotest.fail "evicting from empty queue"
    | Decision_view.Drop -> ()
  done

let test_rand_is_seeded () =
  let config = Proc_config.contiguous ~k:3 ~buffer:3 () in
  let run seed =
    let policy = P_rand.make ~seed config in
    let sw = Proc_switch.create config in
    for _ = 1 to 3 do
      ignore (Proc_switch.accept sw ~dest:2 ~value:1)
    done;
    List.init 20 (fun _ -> Policy.admit policy sw ~dest:0 ~value:1)
  in
  Alcotest.(check bool) "same seed, same decisions" true
    (List.equal Decision.equal (run 1) (run 1));
  Alcotest.(check bool) "different seeds diverge" true
    (not (List.equal Decision.equal (run 1) (run 2)))

let test_extended_registries () =
  let config = Proc_config.contiguous ~k:4 ~buffer:8 () in
  let names =
    List.map (fun (p : Proc_switch.t Policy.t) -> p.name) (Policies.proc_extended config)
  in
  List.iter
    (fun n ->
      if not (List.mem n names) then Alcotest.failf "missing %s" n)
    [ "LWD"; "LWD1"; "LWD/tie=small-work"; "LWD/tie=long-queue"; "RAND" ];
  let vconfig = Value_config.make ~ports:4 ~max_value:4 ~buffer:8 () in
  let vnames =
    List.map (fun (p : Value_switch.t Policy.t) -> p.name)
      (Policies.value_extended vconfig)
  in
  List.iter
    (fun n ->
      if not (List.mem n vnames) then Alcotest.failf "missing %s" n)
    [ "MRD"; "MRD1"; "RAND" ];
  Alcotest.(check bool) "find knows ablations" true
    (Option.is_some (Policies.proc_find config "lwd1"))

(* Structured eviction should beat random eviction under congestion. *)
let test_rand_is_a_floor () =
  let config = Proc_config.contiguous ~k:16 ~buffer:64 () in
  let workload =
    Smbm_traffic.Scenario.proc_workload
      ~mmpp:{ Smbm_traffic.Scenario.default_mmpp with sources = 50 }
      ~config ~load:2.5 ~seed:21 ()
  in
  let lwd = Engine.Proc.instance config (P_lwd.make config) in
  let rand = Engine.Proc.instance config (P_rand.make config) in
  let opt = Opt_ref.proc_instance config in
  Experiment.run
    ~params:
      { Experiment.slots = 15_000; flush_every = Some 1_500; check_every = None }
    ~workload [ lwd; rand; opt ];
  let r name inst = (name, Experiment.ratio ~objective:`Packets ~opt ~alg:inst) in
  let _, lwd_r = r "lwd" lwd and _, rand_r = r "rand" rand in
  Alcotest.(check bool) "LWD beats random eviction" true (lwd_r < rand_r)

let suite =
  [
    Alcotest.test_case "LWD1 protects last packet" `Quick
      test_lwd1_protects_last_packet;
    Alcotest.test_case "LWD1 pushes eligible queues" `Quick
      test_lwd1_still_pushes_long_queues;
    Alcotest.test_case "LWD tie variants" `Quick test_lwd_tie_variants_differ;
    Alcotest.test_case "MRD1 protects singletons" `Quick
      test_mrd1_protects_singletons;
    Alcotest.test_case "RAND makes legal decisions" `Quick
      test_rand_legal_decisions;
    Alcotest.test_case "RAND is seeded" `Quick test_rand_is_seeded;
    Alcotest.test_case "extended registries" `Quick test_extended_registries;
    Alcotest.test_case "RAND is a floor" `Slow test_rand_is_a_floor;
  ]
