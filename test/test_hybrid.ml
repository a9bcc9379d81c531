(* The combined work + value model (the paper's future-work direction): a
   processing configuration with [max_value > 1] on the processing switch
   and engine.  Switch mechanics of the value column, the WVD candidate
   policy, ground-truth ordering against the exhaustive optimum, and a
   lockstep against the model's original scan implementation
   (Hybrid_oracle). *)

open Smbm_core
open Smbm_traffic
open Smbm_sim

let decision = Alcotest.testable Decision.pp Decision.equal

let config ?(works = [| 1; 2; 3 |]) ?(max_value = 9) ?(buffer = 6) () =
  Proc_config.make ~works ~buffer ~max_value ()

let fill sw packets =
  List.iter (fun (dest, value) -> Proc_switch.accept sw ~dest ~value) packets

(* --- switch mechanics --- *)

let test_switch_accounting () =
  let sw = Proc_switch.create (config ()) in
  fill sw [ (2, 5); (2, 1); (0, 9) ];
  Alcotest.(check int) "occupancy" 3 (Proc_switch.occupancy sw);
  Alcotest.(check int) "W_2" 6 (Proc_switch.queue_work sw 2);
  Alcotest.(check int) "V_2" 6 (Proc_switch.queue_value sw 2);
  Alcotest.(check int) "tail value" 1 (Proc_switch.tail_value sw 2);
  Alcotest.(check int) "empty tail" 0 (Proc_switch.tail_value sw 1);
  Proc_switch.check_invariants sw;
  Alcotest.(check int) "tail evicted" 1 (Proc_switch.push_out sw ~victim:2);
  Alcotest.(check int) "V_2 after" 5 (Proc_switch.queue_value sw 2);
  Proc_switch.check_invariants sw

let test_switch_transmission () =
  (* Port 2 (work 3) with speedup 1: its packet takes three phases; value
     counted once on completion. *)
  let sw = Proc_switch.create (config ()) in
  fill sw [ (2, 7) ];
  let value = ref 0 in
  let on_transmit ~dest:_ ~value:v ~arrival:_ = value := !value + v in
  for _ = 1 to 2 do
    ignore (Proc_switch.transmit_phase sw ~on_transmit)
  done;
  Alcotest.(check int) "not done yet" 0 !value;
  ignore (Proc_switch.transmit_phase sw ~on_transmit);
  Alcotest.(check int) "value on completion" 7 !value;
  Alcotest.(check int) "empty" 0 (Proc_switch.occupancy sw);
  Alcotest.(check int) "V_2 drained" 0 (Proc_switch.queue_value sw 2)

let test_switch_validation () =
  let sw = Proc_switch.create (config ~max_value:4 ()) in
  (match Proc_switch.accept sw ~dest:0 ~value:5 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "out-of-range value accepted");
  (match Proc_switch.accept sw ~dest:0 ~value:0 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "value 0 accepted");
  (match Proc_switch.push_out sw ~victim:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "push-out from empty queue");
  (match Proc_config.make ~works:[| 1 |] ~buffer:1 ~max_value:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "max_value 0 accepted");
  let pp cfg = Format.asprintf "%a" Proc_config.pp cfg in
  Alcotest.(check string) "pp shows max_value" "n=3 B=6 C=1 works=[1;2;3] V=4"
    (pp (config ~max_value:4 ()));
  Alcotest.(check string) "pp hides max_value 1" "n=3 B=6 C=1 works=[1;2;3]"
    (pp (config ~max_value:1 ()))

(* --- policies --- *)

let full_switch packets =
  let cfg = config ~buffer:4 () in
  let sw = Proc_switch.create cfg in
  fill sw packets;
  (cfg, sw)

let test_wvd_prefers_work_heavy_cheap_queue () =
  (* Q1 (work 2): two value-9 packets, W=4 V=18, ratio 0.22;
     Q2 (work 3): two value-1 packets, W=6 V=2, ratio 3.
     WVD evicts from Q2 - lots of work, little value. *)
  let cfg, sw = full_switch [ (1, 9); (1, 9); (2, 1); (2, 1) ] in
  Alcotest.check decision "evict cheap heavy queue"
    (Decision.push_out 2)
    (Policy.admit (P_wvd.make cfg) sw ~dest:0 ~value:5);
  (* LWD, value-blind, agrees here (Q2 also has the most work)... *)
  Alcotest.check decision "LWD agrees on work alone"
    (Decision.push_out 2)
    (Policy.admit (P_lwd.make cfg) sw ~dest:0 ~value:5)

let test_wvd_differs_from_lwd () =
  (* Q1: three value-9 (W=6, V=27, ratio 0.22);
     Q2: one value-1 (W=3, V=1, ratio 3).
     LWD evicts Q1 (6 > 3); WVD evicts Q2. *)
  let cfg, sw = full_switch [ (1, 9); (1, 9); (1, 9); (2, 1) ] in
  Alcotest.check decision "LWD follows work"
    (Decision.push_out 1)
    (Policy.admit (P_lwd.make cfg) sw ~dest:0 ~value:5);
  Alcotest.check decision "WVD follows work-per-value"
    (Decision.push_out 2)
    (Policy.admit (P_wvd.make cfg) sw ~dest:0 ~value:5)

let test_mvd_tail_only () =
  (* Q1 holds values [9; 1] (tail 1), Q2 holds [5; 4] (tail 4): MVD may
     only evict tails; cheapest tail is Q1's 1. *)
  let cfg, sw = full_switch [ (1, 9); (1, 1); (2, 5); (2, 4) ] in
  Alcotest.check decision "cheapest tail"
    (Decision.push_out 1)
    (Policy.admit (P_mvd.make cfg) sw ~dest:0 ~value:8);
  Alcotest.check decision "no gain, drop" Decision.drop
    (Policy.admit (P_mvd.make cfg) sw ~dest:0 ~value:1)

let test_registry () =
  let cfg = config () in
  Alcotest.(check (list string))
    "seven policies"
    [ "Greedy"; "NEST"; "LQD"; "LWD"; "MVD"; "WVD"; "DPK" ]
    (List.map (fun (p : Proc_switch.t Policy.t) -> p.name) (Policies.hybrid cfg));
  Alcotest.(check bool) "find WVD" true
    (Option.is_some (Policies.proc_find cfg "wvd"))

(* --- engine + exact optimum --- *)

let run_policy cfg trace ~drain policy =
  let inst = Engine.Proc.instance cfg policy in
  Experiment.run
    ~params:
      {
        Experiment.slots = Array.length trace + drain;
        flush_every = None;
        check_every = Some 1;
      }
    ~workload:
      (Workload.of_fun (fun i ->
           if i < Array.length trace then trace.(i) else []))
    [ inst ];
  Metrics.transmitted_value inst.Instance.metrics

let test_exact_opt_known_case () =
  (* B = 1, two simultaneous arrivals: work-1/value-2 vs work-2/value-3,
     3 slots total: taking the value-2 then another value-2 next slot (4)
     beats holding the value-3 (3). *)
  let cfg = config ~works:[| 1; 2 |] ~buffer:1 () in
  let a = Arrival.make ~dest:0 ~value:2 () and b = Arrival.make ~dest:1 ~value:3 () in
  let trace = [| [ b; a ]; [ a ] |] in
  Alcotest.(check int) "exact value" 4 (Exact_opt.proc cfg trace ~drain:1);
  (* The argmax replay transmits exactly that value. *)
  let ring = Smbm_obs.Flight.create ~cap:64 () in
  ignore (Exact_opt.proc ~events:ring cfg trace ~drain:1 : int);
  let replayed =
    List.fold_left
      (fun acc (e : Smbm_obs.Event.t) ->
        match e.kind with
        | Smbm_obs.Event.Transmit_bulk { value; _ } -> acc + value
        | _ -> acc)
      0
      (Smbm_obs.Flight.events ring)
  in
  Alcotest.(check int) "replayed value" 4 replayed

let prop_policies_below_exact =
  QCheck2.Test.make
    ~name:"hybrid: every policy <= brute-force optimum per trace" ~count:60
    QCheck2.Gen.(
      let* n = int_range 1 3 in
      let* works = array_size (pure n) (int_range 1 3) in
      let* buffer = int_range 1 4 in
      let* k = int_range 1 5 in
      let* pairs =
        list_size (int_range 1 4)
          (list_size (int_range 0 3)
             (pair (int_range 0 (n - 1)) (int_range 1 k)))
      in
      pure (works, buffer, k, pairs))
    (fun (works, buffer, k, pairs) ->
      let cfg = Proc_config.make ~works ~buffer ~max_value:k () in
      let trace =
        Array.of_list
          (List.map
             (List.map (fun (d, v) -> Arrival.make ~dest:d ~value:v ()))
             pairs)
      in
      let drain = buffer * 3 in
      let exact = Exact_opt.proc cfg trace ~drain in
      List.for_all
        (fun policy -> run_policy cfg trace ~drain policy <= exact)
        (Policies.hybrid cfg))

let test_hybrid_regime_structure () =
  (* The combined model's empirical finding (documented in EXPERIMENTS.md):
     no naive single-number combination dominates.  With value
     anti-correlated to work (heavy ports carry cheap traffic):
     - at moderate congestion the value-blind LWD stays within a whisker of
       the best;
     - at extreme congestion MVD (keep the valuable tails) wins while the
       queue-aggregate WVD collapses into single-port monopolization. *)
  let cfg = config ~works:[| 1; 2; 4; 8 |] ~max_value:8 ~buffer:24 () in
  let module R = Smbm_prelude.Rng in
  let trace_at lambda =
    let rng = R.create ~seed:5 in
    Array.init 4_000 (fun _ ->
        List.init (R.poisson rng ~lambda) (fun _ ->
            let dest = R.int rng 4 in
            let value = 1 + R.int rng (9 - [| 1; 2; 4; 8 |].(dest)) in
            Arrival.make ~dest ~value ()))
  in
  let value_of trace policy = run_policy cfg trace ~drain:100 policy in
  (* Moderate congestion. *)
  let trace = trace_at 2.0 in
  let lwd = value_of trace (P_lwd.make cfg) in
  List.iter
    (fun (p : Proc_switch.t Policy.t) ->
      if p.name <> "Greedy" && value_of trace p > lwd + (lwd / 20) then
        Alcotest.failf "%s beats LWD by >5%% at moderate congestion" p.name)
    (Policies.hybrid cfg);
  (* Extreme congestion. *)
  let trace = trace_at 8.0 in
  let lwd = value_of trace (P_lwd.make cfg) in
  let mvd = value_of trace (P_mvd.make cfg) in
  let wvd = value_of trace (P_wvd.make cfg) in
  Alcotest.(check bool) "MVD wins at extreme congestion" true (mvd > lwd);
  Alcotest.(check bool) "WVD collapses at extreme congestion" true (wvd < lwd)

(* --- lockstep against the original scan implementation --- *)

(* The production policy, spied on: its last decision. *)
let spy (p : Proc_switch.t Policy.t) last =
  Policy.make ~name:p.name ~push_out:p.push_out (fun sw ~dest ~value ->
      let d = Policy.admit p sw ~dest ~value in
      last := d;
      d)

let same_state sw osw =
  let ok = ref (Proc_switch.occupancy sw = Hybrid_oracle.occupancy osw) in
  for i = 0 to Proc_switch.n sw - 1 do
    let expected =
      List.map
        (fun (p : Hybrid_oracle.packet) ->
          (p.id, p.residual, p.value, p.arrival))
        (Hybrid_oracle.queue_packets osw i)
    in
    let tail = Option.value ~default:0 (Hybrid_oracle.tail_value osw i) in
    if
      Ports.proc_valued sw i <> expected
      || Proc_switch.queue_length sw i <> Hybrid_oracle.queue_length osw i
      || Proc_switch.queue_work sw i <> Hybrid_oracle.queue_work osw i
      || Proc_switch.queue_value sw i <> Hybrid_oracle.queue_value osw i
      || Proc_switch.tail_value sw i <> tail
    then ok := false
  done;
  !ok

let same_metrics (a : Instance.t) (b : Instance.t) =
  let m = a.metrics and o = b.metrics in
  let ports (i : Instance.t) =
    match i.ports with
    | Some p -> List.init (Port_stats.n p) (Port_stats.transmitted_value p)
    | None -> []
  in
  Metrics.arrivals m = Metrics.arrivals o
  && Metrics.accepted m = Metrics.accepted o
  && Metrics.dropped m = Metrics.dropped o
  && Metrics.pushed_out m = Metrics.pushed_out o
  && Metrics.transmitted m = Metrics.transmitted o
  && Metrics.transmitted_value m = Metrics.transmitted_value o
  && Metrics.flushed m = Metrics.flushed o
  && Smbm_prelude.Running_stats.mean (Metrics.latency_stats m)
     = Smbm_prelude.Running_stats.mean (Metrics.latency_stats o)
  && ports a = ports b

let prop_lockstep_with_oracle =
  QCheck2.Test.make
    ~name:"hybrid: valued Engine.Proc agrees with the scan oracle" ~count:300
    QCheck2.Gen.(
      (* Mostly small switches, and some of 63-65 ports with a larger
         buffer and longer runs; half the cases draw works and values from
         {1, 2} only, so WVD's ratios, DPK's densities and tail-MVD's tails
         tie often. *)
      let* wide = frequency [ (4, pure false); (1, pure true) ] in
      let* n = if wide then oneofl [ 63; 64; 65 ] else int_range 1 4 in
      let* ties = bool in
      let key max = int_range 1 (if ties then 2 else max) in
      let* works = array_size (pure n) (key 5) in
      let* buffer = int_range 1 (if wide then 96 else 6) in
      let* speedup = int_range 1 3 in
      let* max_value = int_range (if ties then 2 else 1) 6 in
      let* policy = int_range 0 6 in
      let* ops =
        list_size
          (if wide then int_range 40 240 else int_range 1 80)
          (frequency
             [
               ( 6,
                 map2
                   (fun d v -> `Arrive (d, v))
                   (int_range 0 (n - 1))
                   (key max_value) );
               (2, pure `Slot);
               (1, map (fun b -> `Resize b) (int_range 1 (if wide then 100 else 8)));
               (1, pure `Flush);
             ])
      in
      pure (works, buffer, speedup, max_value, policy, ops))
    (fun (works, buffer, speedup, max_value, policy, ops) ->
      let config = Proc_config.make ~works ~buffer ~speedup ~max_value () in
      let prod = List.nth (Policies.hybrid config) policy
      and oracle = List.nth (Hybrid_oracle.all config) policy in
      let last = ref Decision.drop in
      let pring = Smbm_obs.Flight.create ~cap:4096 ()
      and oring = Smbm_obs.Flight.create ~cap:4096 () in
      let inst, sw =
        Engine.Proc.create ~events:pring config (spy prod last)
      in
      let oinst, osw = Hybrid_oracle.engine ~events:oring config oracle in
      let ok = ref (prod.name = oracle.name) in
      List.iter
        (fun op ->
          (match op with
          | `Arrive (dest, value) ->
            let expected =
              oracle.Hybrid_oracle.admit osw ~dest ~value
            in
            inst.arrive_dv ~dest ~value;
            oinst.arrive_dv ~dest ~value;
            if not (Decision.equal !last expected) then ok := false
          | `Slot ->
            inst.transmit ();
            oinst.transmit ();
            inst.end_slot ();
            oinst.end_slot ()
          | `Resize b ->
            let b = max b (Proc_switch.occupancy sw) in
            Proc_switch.set_buffer sw b;
            Hybrid_oracle.set_buffer osw b
          | `Flush ->
            inst.flush ();
            oinst.flush ());
          inst.check ();
          oinst.check ();
          if not (same_state sw osw && same_metrics inst oinst) then
            ok := false)
        ops;
      !ok
      && Smbm_obs.Flight.events pring = Smbm_obs.Flight.events oring)

(* At max_value = 1 (the processing model) an arrival's value is ignored:
   the same traffic with values 1..9 or all ones gives the same events,
   metrics and exact optimum. *)
let test_unit_model_ignores_values () =
  let cfg = Proc_config.contiguous ~k:3 ~buffer:4 () in
  let rng = Smbm_prelude.Rng.create ~seed:3 in
  let valued =
    Array.init 200 (fun _ ->
        List.init (Smbm_prelude.Rng.poisson rng ~lambda:2.5) (fun _ ->
            Arrival.make ~dest:(Smbm_prelude.Rng.int rng 3)
              ~value:(1 + Smbm_prelude.Rng.int rng 9)
              ()))
  in
  let unit =
    Array.map (List.map (fun (a : Arrival.t) -> { a with value = 1 })) valued
  in
  let run trace =
    let ring = Smbm_obs.Flight.create ~cap:65_536 () in
    let inst = Engine.Proc.instance ~events:ring cfg (P_lwd.make cfg) in
    Experiment.run
      ~params:
        { Experiment.slots = 210; flush_every = Some 50; check_every = Some 1 }
      ~workload:
        (Workload.of_fun (fun i ->
             if i < Array.length trace then trace.(i) else []))
      [ inst ];
    (Format.asprintf "%a" Metrics.pp inst.metrics, Smbm_obs.Flight.events ring)
  in
  Alcotest.(check bool) "same run" true (run valued = run unit);
  let prefix t = Array.sub t 0 4 in
  Alcotest.(check int) "same exact optimum"
    (Exact_opt.proc cfg (prefix unit) ~drain:4)
    (Exact_opt.proc cfg (prefix valued) ~drain:4)

let suite =
  [
    Alcotest.test_case "switch accounting" `Quick test_switch_accounting;
    Alcotest.test_case "switch transmission" `Quick test_switch_transmission;
    Alcotest.test_case "switch validation" `Quick test_switch_validation;
    Alcotest.test_case "WVD evicts cheap heavy queues" `Quick
      test_wvd_prefers_work_heavy_cheap_queue;
    Alcotest.test_case "WVD differs from LWD" `Quick test_wvd_differs_from_lwd;
    Alcotest.test_case "MVD restricted to tails" `Quick test_mvd_tail_only;
    Alcotest.test_case "registry" `Quick test_registry;
    Alcotest.test_case "exact optimum known case" `Quick
      test_exact_opt_known_case;
    Alcotest.test_case "hybrid regime structure" `Slow
      test_hybrid_regime_structure;
    Qc.to_alcotest prop_policies_below_exact;
    Qc.to_alcotest prop_lockstep_with_oracle;
    Alcotest.test_case "max_value 1 ignores arrival values" `Quick
      test_unit_model_ignores_values;
  ]
