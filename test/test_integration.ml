(* End-to-end checks that the simulation study reproduces the *shape* of the
   paper's Fig. 5 at miniature scale (fixed seeds, reduced slot counts). *)

open Smbm_sim

let base =
  {
    Sweep.default_base with
    Sweep.slots = 15_000;
    flush_every = Some 1_500;
    mmpp = { Smbm_traffic.Scenario.default_mmpp with sources = 100 };
    seed = 1234;
  }

let assoc name ratios =
  match List.assoc_opt name ratios with
  | Some r -> r
  | None -> Alcotest.failf "policy %s missing from ratios" name

let test_proc_ordering_under_congestion () =
  (* Paper Fig. 5(1) at one congested point: LWD best, BPD clearly worst,
     BPD1 between BPD and the push-out policies. *)
  let ratios = Sweep.run_point ~base ~model:Sweep.Proc ~axis:Sweep.K ~x:32 () in
  let lwd = assoc "LWD" ratios
  and lqd = assoc "LQD" ratios
  and bpd = assoc "BPD" ratios
  and bpd1 = assoc "BPD1" ratios in
  Alcotest.(check bool) "LWD no worse than LQD" true (lwd <= lqd +. 0.02);
  Alcotest.(check bool) "BPD poorest of the push-out family" true
    (bpd > lwd && bpd > lqd && bpd > bpd1);
  List.iter
    (fun (name, r) ->
      if r < lwd -. 0.02 then
        Alcotest.failf "%s (%.3f) beats LWD (%.3f)" name r lwd)
    ratios

let test_proc_nonpushout_degrade_with_k () =
  (* Non-push-out policies deteriorate faster as k grows. *)
  let at x = Sweep.run_point ~base ~model:Sweep.Proc ~axis:Sweep.K ~x () in
  let small = at 4 and large = at 32 in
  let growth name = assoc name large -. assoc name small in
  Alcotest.(check bool) "NHDT degrades more than LWD" true
    (growth "NHDT" > growth "LWD");
  Alcotest.(check bool) "NEST degrades more than LWD" true
    (growth "NEST" > growth "LWD")

let test_proc_large_buffer_relieves_congestion () =
  (* Fig. 5(2): with a very large buffer drops disappear and all policies
     converge onto a common floor (the floor stays above 1 because the OPT
     reference relaxes per-port FIFO service, as the paper notes). *)
  let tight = Sweep.run_point ~base ~model:Sweep.Proc ~axis:Sweep.B ~x:32 () in
  let loose = Sweep.run_point ~base ~model:Sweep.Proc ~axis:Sweep.B ~x:4096 () in
  Alcotest.(check bool) "NEST improves with buffer" true
    (assoc "NEST" loose < assoc "NEST" tight);
  let values = List.map snd loose in
  let lo = List.fold_left Float.min infinity values
  and hi = List.fold_left Float.max neg_infinity values in
  Alcotest.(check bool) "all policies converge at huge buffer" true
    (hi -. lo < 0.05)

let test_proc_speedup_relieves_congestion () =
  (* Fig. 5(3): speedup benefits every policy; LWD stays ahead. *)
  let slow = Sweep.run_point ~base ~model:Sweep.Proc ~axis:Sweep.C ~x:1 () in
  let fast = Sweep.run_point ~base ~model:Sweep.Proc ~axis:Sweep.C ~x:8 () in
  Alcotest.(check bool) "LWD improves with speedup" true
    (assoc "LWD" fast < assoc "LWD" slow);
  Alcotest.(check bool) "LWD still leads" true
    (List.for_all (fun (_, r) -> r >= assoc "LWD" fast -. 0.05) fast)

let test_value_uniform_ordering () =
  (* Fig. 5(4-6): MRD and LQD close together in front; MVD/MVD1 trail far
     behind; the greedy non-push-out baseline is poor. *)
  let ratios =
    Sweep.run_point ~base ~model:Sweep.Value_uniform ~axis:Sweep.K ~x:16 ()
  in
  let mrd = assoc "MRD" ratios
  and lqd = assoc "LQD" ratios
  and mvd = assoc "MVD" ratios
  and mvd1 = assoc "MVD1" ratios in
  Alcotest.(check bool) "MRD at least as good as LQD (small gap)" true
    (mrd <= lqd +. 0.05);
  (* "Trailing behind" compares distance from the OPT reference: MVD's
     excess over 1 clearly exceeds MRD's. *)
  Alcotest.(check bool) "MVD trails behind MRD" true
    (mvd -. 1.0 > 1.3 *. (mrd -. 1.0));
  Alcotest.(check bool) "MVD1 better than MVD" true (mvd1 < mvd)

let test_value_port_mrd_advantage () =
  (* Fig. 5(7-9): with value tied to port MRD tracks LQD closely under
     uniform overload (keeping every port active is already optimal
     there)... *)
  let ratios =
    Sweep.run_point ~base ~model:Sweep.Value_port ~axis:Sweep.K ~x:16 ()
  in
  Alcotest.(check bool) "MRD tracks LQD" true
    (assoc "MRD" ratios <= assoc "LQD" ratios +. 0.04)

let test_value_port_flood_mrd_wins () =
  (* ... and pulls ahead when cheap traffic floods the low-value ports -
     the paper's "distributions that prioritize certain values at specific
     queues". *)
  let open Smbm_core in
  let open Smbm_traffic in
  let config = Value_config.make ~ports:16 ~max_value:16 ~buffer:64 () in
  let run policy =
    let workload =
      Scenario.value_port_flood_workload
        ~mmpp:{ Scenario.default_mmpp with sources = 100 }
        ~config ~load:1.5 ~seed:7 ()
    in
    let alg = Engine.Value.instance config policy in
    let opt = Opt_ref.value_instance config in
    Experiment.run
      ~params:
        { Experiment.slots = 20_000; flush_every = Some 5_000; check_every = None }
      ~workload [ alg; opt ];
    Experiment.ratio ~objective:`Value ~opt ~alg
  in
  let mrd = run (V_mrd.make config) and lqd = run (V_lqd.make config) in
  Alcotest.(check bool) "MRD strictly better under cheap flood" true (mrd < lqd)

let test_value_large_speedup_mvd_wins () =
  (* The paper's graph (6) peculiarity: at very large speedup MVD overtakes
     LQD and MRD (bursts processable in one slot but not bufferable). *)
  let ratios =
    Sweep.run_point
      ~base:{ base with Sweep.load = 4.0 }
      ~model:Sweep.Value_uniform ~axis:Sweep.C ~x:16 ()
  in
  let mvd = assoc "MVD" ratios
  and lqd = assoc "LQD" ratios in
  Alcotest.(check bool) "MVD competitive at high speedup" true
    (mvd < lqd +. 0.25)

let test_all_ratios_at_least_one () =
  List.iter
    (fun (model, name) ->
      let ratios = Sweep.run_point ~base ~model ~axis:Sweep.K ~x:8 () in
      List.iter
        (fun (policy, r) ->
          if r < 0.999 then
            Alcotest.failf "%s/%s beat the OPT reference: %.4f" name policy r)
        ratios)
    [
      (Sweep.Proc, "proc");
      (Sweep.Value_uniform, "value-uniform");
      (Sweep.Value_port, "value-port");
    ]

let test_mrd_never_explicitly_worse_than_lqd () =
  (* The paper: "in general, our experiments suggest that MRD is never
     explicitly worse than LQD".  Aggregated over many random small traces,
     MRD's transmitted value must stay within a whisker of LQD's. *)
  let open Smbm_core in
  let open Smbm_traffic in
  let rng = Smbm_prelude.Rng.create ~seed:77 in
  let module R = Smbm_prelude.Rng in
  let total_mrd = ref 0 and total_lqd = ref 0 in
  for _ = 1 to 150 do
    let ports = R.int_in rng 1 4 in
    let k = R.int_in rng 2 8 in
    let buffer = R.int_in rng 2 8 in
    let config = Value_config.make ~ports ~max_value:k ~buffer () in
    let slots = R.int_in rng 2 10 in
    let trace =
      Array.init slots (fun _ ->
          List.init (R.int_in rng 0 5) (fun _ ->
              Arrival.make ~dest:(R.int rng ports) ~value:(R.int_in rng 1 k) ()))
    in
    let run policy =
      let inst = Engine.Value.instance config policy in
      Experiment.run
        ~params:
          {
            Experiment.slots = slots + buffer + 1;
            flush_every = None;
            check_every = None;
          }
        ~workload:
          (Workload.of_fun (fun i -> if i < slots then trace.(i) else []))
        [ inst ];
      (Metrics.transmitted_value inst.Instance.metrics)
    in
    total_mrd := !total_mrd + run (V_mrd.make config);
    total_lqd := !total_lqd + run (V_lqd.make config)
  done;
  Alcotest.(check bool) "MRD aggregate within 2% of LQD" true
    (float_of_int !total_mrd >= 0.98 *. float_of_int !total_lqd)

let test_determinism_across_runs () =
  let run () = Sweep.run_point ~base ~model:Sweep.Proc ~axis:Sweep.K ~x:8 () in
  let a = run () and b = run () in
  List.iter2
    (fun (n1, r1) (n2, r2) ->
      Alcotest.(check string) "same policy" n1 n2;
      Alcotest.(check (float 1e-12)) "identical ratio" r1 r2)
    a b

let suite =
  [
    Alcotest.test_case "proc ordering under congestion" `Slow
      test_proc_ordering_under_congestion;
    Alcotest.test_case "non-push-out degrade with k" `Slow
      test_proc_nonpushout_degrade_with_k;
    Alcotest.test_case "large buffer relieves congestion" `Slow
      test_proc_large_buffer_relieves_congestion;
    Alcotest.test_case "speedup relieves congestion" `Slow
      test_proc_speedup_relieves_congestion;
    Alcotest.test_case "value-uniform ordering" `Slow
      test_value_uniform_ordering;
    Alcotest.test_case "value-port MRD advantage" `Slow
      test_value_port_mrd_advantage;
    Alcotest.test_case "cheap flood favours MRD" `Slow
      test_value_port_flood_mrd_wins;
    Alcotest.test_case "high speedup favours MVD" `Slow
      test_value_large_speedup_mvd_wins;
    Alcotest.test_case "no policy beats the OPT reference" `Slow
      test_all_ratios_at_least_one;
    Alcotest.test_case "MRD never explicitly worse than LQD" `Quick
      test_mrd_never_explicitly_worse_than_lqd;
    Alcotest.test_case "determinism across runs" `Slow
      test_determinism_across_runs;
  ]
