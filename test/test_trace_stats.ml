open Smbm_core
open Smbm_traffic

let trace_of slots = Trace.Compact.of_slots (Array.of_list slots)

let test_empty () =
  let s = Trace_stats.analyze (trace_of []) in
  Alcotest.(check int) "arrivals" 0 s.Trace_stats.arrivals;
  Alcotest.(check (float 1e-9)) "burstiness" 0.0 s.Trace_stats.burstiness

let test_counts () =
  let a d = Arrival.make ~dest:d () in
  let s = Trace_stats.analyze (trace_of [ [ a 0; a 1 ]; []; [ a 0 ] ]) in
  Alcotest.(check int) "slots" 3 s.Trace_stats.slots;
  Alcotest.(check int) "arrivals" 3 s.Trace_stats.arrivals;
  Alcotest.(check (float 1e-9)) "mean rate" 1.0 s.Trace_stats.mean_rate;
  Alcotest.(check int) "peak" 2 s.Trace_stats.peak_rate;
  Alcotest.(check int) "busy slots" 2 s.Trace_stats.busy_slots;
  Alcotest.(check (list (pair int int))) "per port" [ (0, 2); (1, 1) ]
    s.Trace_stats.per_port

let test_burstiness_orders_traffic () =
  (* A constant-rate trace has dispersion 0; an on-off trace with the same
     mean has dispersion > 1. *)
  let a = Arrival.make ~dest:0 () in
  let steady = trace_of (List.init 40 (fun _ -> [ a ])) in
  let bursty =
    trace_of (List.init 40 (fun i -> if i mod 4 = 0 then [ a; a; a; a ] else []))
  in
  let s1 = Trace_stats.analyze steady and s2 = Trace_stats.analyze bursty in
  Alcotest.(check (float 1e-9)) "same mean" s1.Trace_stats.mean_rate
    s2.Trace_stats.mean_rate;
  Alcotest.(check (float 1e-9)) "steady dispersion" 0.0
    s1.Trace_stats.burstiness;
  Alcotest.(check bool) "bursty dispersion > 1" true
    (s2.Trace_stats.burstiness > 1.0)

let test_offered_work_and_load () =
  let config = Proc_config.contiguous ~k:3 ~buffer:6 () in
  let a d = Arrival.make ~dest:d () in
  (* Works 1, 2, 3: one packet each = 6 cycles over 2 slots of 3-cycle
     capacity. *)
  let trace = trace_of [ [ a 0; a 1 ]; [ a 2 ] ] in
  Alcotest.(check int) "offered work" 6 (Trace_stats.offered_work config trace);
  Alcotest.(check (float 1e-9)) "offered load" 1.0
    (Trace_stats.offered_load config trace);
  let bad = trace_of [ [ a 7 ] ] in
  match Trace_stats.offered_work config bad with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown port accepted"

let test_model_offered_load () =
  (* A processing switch weights each arrival by its port's work; a value
     switch counts arrivals against n * C transmissions per slot. *)
  let a d = Arrival.make ~dest:d () in
  let trace = trace_of [ [ a 0; a 1 ]; [ a 2 ] ] in
  let value ~speedup =
    Value_config.make ~ports:3 ~max_value:3 ~buffer:6 ~speedup ()
  in
  let load model = Smbm_sim.Model.offered_load model trace in
  Alcotest.(check (float 1e-9)) "proc" 1.0
    (load (Smbm_sim.Model.Proc (Proc_config.contiguous ~k:3 ~buffer:6 ())));
  Alcotest.(check (float 1e-9)) "value-uniform" 0.5
    (load (Smbm_sim.Model.Value_uniform (value ~speedup:1)));
  Alcotest.(check (float 1e-9)) "value-port at C = 2" 0.25
    (load (Smbm_sim.Model.Value_port (value ~speedup:2)));
  let no_port = trace_of [ [ a 3 ] ] in
  match
    Smbm_sim.Model.(offered_load (Value_uniform (value ~speedup:1)) no_port)
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown port accepted"

let test_model_offered_load_at_recorded_load () =
  (* A value trace recorded at load 1.0 reads back near 1.0 against the
     value switch it was recorded for. *)
  let config = Value_config.make ~ports:4 ~max_value:4 ~buffer:16 () in
  let model = Smbm_sim.Model.Value_uniform config in
  let mmpp = { Scenario.default_mmpp with sources = 20 } in
  let trace =
    Trace.Compact.of_workload
      (Smbm_sim.Model.workload ~mmpp model ~load:1.0 ~seed:42)
      ~slots:20_000
  in
  let load = Smbm_sim.Model.offered_load model trace in
  Alcotest.(check bool)
    (Printf.sprintf "load %.3f within 10%% of 1.0" load)
    true
    (Float.abs (load -. 1.0) < 0.1)

let test_total_value () =
  let v d value = Arrival.make ~dest:d ~value () in
  let s = Trace_stats.analyze (trace_of [ [ v 0 5; v 1 2 ] ]) in
  Alcotest.(check int) "total value" 7 s.Trace_stats.total_value

let test_mmpp_workload_is_bursty () =
  (* The MMPP scenario must produce over-dispersed traffic (that is its
     purpose); a dispersion index well above 1 confirms it. *)
  (* Aggregate dispersion of independent MMPP sources is roughly
     1 + rate_on * (1 - duty): it takes few, hot sources to be visibly
     bursty (the index is invariant under splitting the same aggregate rate
     across more sources). *)
  let config = Proc_config.contiguous ~k:8 ~buffer:32 () in
  let w =
    Scenario.proc_workload
      ~mmpp:{ Scenario.default_mmpp with sources = 5 }
      ~config ~load:1.5 ~seed:9 ()
  in
  let trace = Trace.Compact.of_workload w ~slots:20_000 in
  let s = Trace_stats.analyze trace in
  Alcotest.(check bool) "over-dispersed" true (s.Trace_stats.burstiness > 1.5)

let suite =
  [
    Alcotest.test_case "empty trace" `Quick test_empty;
    Alcotest.test_case "counts" `Quick test_counts;
    Alcotest.test_case "burstiness orders traffic" `Quick
      test_burstiness_orders_traffic;
    Alcotest.test_case "offered work and load" `Quick
      test_offered_work_and_load;
    Alcotest.test_case "model offered load" `Quick test_model_offered_load;
    Alcotest.test_case "value trace reads back its load" `Quick
      test_model_offered_load_at_recorded_load;
    Alcotest.test_case "total value" `Quick test_total_value;
    Alcotest.test_case "MMPP workload is bursty" `Quick
      test_mmpp_workload_is_bursty;
  ]
