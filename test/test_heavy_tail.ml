open Smbm_prelude
open Smbm_core
open Smbm_traffic

let test_pareto_int_range () =
  let rng = Rng.create ~seed:1 in
  for _ = 1 to 5_000 do
    let x = Rng.pareto_int rng ~alpha:1.3 ~max:50 in
    if x < 1 || x > 50 then Alcotest.fail "pareto_int out of range"
  done;
  (match Rng.pareto_int rng ~alpha:0.0 ~max:5 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "alpha 0 accepted");
  match Rng.pareto_int rng ~alpha:1.0 ~max:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "max 0 accepted"

let test_pareto_int_tail_probability () =
  (* P(X >= x) = x^(-alpha) below the cap. *)
  let rng = Rng.create ~seed:2 in
  let alpha = 1.5 and n = 100_000 in
  let count_ge threshold =
    let c = ref 0 in
    for _ = 1 to n do
      if Rng.pareto_int rng ~alpha ~max:10_000 >= threshold then incr c
    done;
    float_of_int !c /. float_of_int n
  in
  List.iter
    (fun x ->
      let expected = Float.pow (float_of_int x) (-.alpha) in
      let got = count_ge x in
      if abs_float (got -. expected) > 5.0 *. sqrt (expected /. float_of_int n) +. 0.002
      then
        Alcotest.failf "tail at %d: got %.4f expected %.4f" x got expected)
    [ 2; 5; 10 ]

let test_pareto_int_mean_matches_samples () =
  let rng = Rng.create ~seed:3 in
  let alpha = 1.4 and cap = 200 in
  let predicted = Rng.pareto_int_mean ~alpha ~max:cap in
  let n = 200_000 in
  let total = ref 0 in
  for _ = 1 to n do
    total := !total + Rng.pareto_int rng ~alpha ~max:cap
  done;
  let empirical = float_of_int !total /. float_of_int n in
  Alcotest.(check bool) "closed-form mean" true
    (abs_float (empirical -. predicted) /. predicted < 0.05)

let test_batch_mmpp_rate () =
  (* An always-on source whose batch mean is the raw Pareto mean: every
     on-slot is one untouched Pareto batch. *)
  let mean = Rng.pareto_int_mean ~alpha:1.5 ~max:100 in
  let bank =
    Source_bank.create ~rng:(Rng.create ~seed:4) ~sources:1 ~p_on_to_off:0.0
      ~p_off_to_on:1.0
      ~emission:(Heavy_tail { alpha = 1.5; max_batch = 100; mean })
      ~label:(Label.uniform_port ~n:1)
  in
  Alcotest.(check (float 1e-9)) "declared mean rate" mean
    (Source_bank.mean_rate bank);
  let batch = Arrival_batch.create () in
  let slots = 100_000 in
  let total = ref 0 in
  for _ = 1 to slots do
    Arrival_batch.clear batch;
    Source_bank.fill bank batch;
    total := !total + Arrival_batch.length batch
  done;
  let empirical = float_of_int !total /. float_of_int slots in
  Alcotest.(check bool) "empirical rate" true
    (abs_float (empirical -. mean) /. mean < 0.05)

let test_heavy_tail_workload_rate_and_dispersion () =
  let config = Proc_config.contiguous ~k:8 ~buffer:32 () in
  let mmpp = { Scenario.default_mmpp with sources = 50 } in
  let analyze w = Trace_stats.analyze (Trace.Compact.of_workload w ~slots:30_000) in
  let heavy =
    analyze (Scenario.proc_heavy_tail_workload ~mmpp ~config ~load:1.5 ~seed:11 ())
  in
  let poisson =
    analyze (Scenario.proc_workload ~mmpp ~config ~load:1.5 ~seed:11 ())
  in
  let rel_err a b = abs_float (a -. b) /. b in
  Alcotest.(check bool) "same mean rate" true
    (rel_err heavy.Trace_stats.mean_rate poisson.Trace_stats.mean_rate < 0.15);
  Alcotest.(check bool) "much burstier" true
    (heavy.Trace_stats.burstiness > 2.0 *. poisson.Trace_stats.burstiness);
  Alcotest.(check bool) "bigger peaks" true
    (heavy.Trace_stats.peak_rate > poisson.Trace_stats.peak_rate)

let test_heavy_tail_stresses_policies_more () =
  (* At equal mean load, heavy-tailed bursts overflow the buffer far more
     often: the drop rate rises for everyone (the competitive *ratio* need
     not move, since the OPT reference suffers the bursts too). *)
  let open Smbm_sim in
  let config = Proc_config.contiguous ~k:8 ~buffer:32 () in
  let drop_rate workload =
    let lwd = Engine.Proc.instance config (P_lwd.make config) in
    Experiment.run
      ~params:
        { Experiment.slots = 20_000; flush_every = Some 2_000; check_every = None }
      ~workload [ lwd ];
    let m = lwd.Instance.metrics in
    float_of_int (Metrics.dropped m) /. float_of_int (max 1 (Metrics.arrivals m))
  in
  let mmpp = { Scenario.default_mmpp with sources = 50 } in
  let heavy =
    drop_rate
      (Scenario.proc_heavy_tail_workload ~mmpp ~config ~load:1.0 ~seed:13 ())
  in
  let poisson =
    drop_rate (Scenario.proc_workload ~mmpp ~config ~load:1.0 ~seed:13 ())
  in
  Alcotest.(check bool) "heavy tail loses more at equal load" true
    (heavy > 1.2 *. poisson)

let suite =
  [
    Alcotest.test_case "pareto_int range" `Quick test_pareto_int_range;
    Alcotest.test_case "pareto_int tail probability" `Quick
      test_pareto_int_tail_probability;
    Alcotest.test_case "pareto_int mean" `Quick
      test_pareto_int_mean_matches_samples;
    Alcotest.test_case "batch MMPP rate" `Quick test_batch_mmpp_rate;
    Alcotest.test_case "heavy-tail workload dispersion" `Quick
      test_heavy_tail_workload_rate_and_dispersion;
    Alcotest.test_case "heavy tail stresses policies" `Slow
      test_heavy_tail_stresses_policies_more;
  ]
