(* Executable consequences of Theorem 7: for ANY opponent algorithm and any
   trace, the opponent's cumulative transmissions never exceed twice LWD's,
   at every slot (any prefix of the trace is itself a trace, and every
   algorithm is dominated by the prefix-optimal offline algorithm, which the
   paper's mapping routine bounds by 2 x LWD). *)

open Smbm_core
open Smbm_traffic
open Smbm_sim

let certify ~config ~trace ~slots ~opponent =
  Competitive_check.certify_lwd ~config
    ~workload:(Workload.of_fun (fun i -> if i < Array.length trace then trace.(i) else []))
    ~slots ~opponent ()

let test_certificate_against_all_policies_mmpp () =
  let config = Proc_config.contiguous ~k:8 ~buffer:32 () in
  List.iter
    (fun opponent ->
      let workload =
        Scenario.proc_workload
          ~mmpp:{ Scenario.default_mmpp with sources = 50 }
          ~config ~load:2.5 ~seed:5 ()
      in
      let outcome =
        Competitive_check.certify_lwd ~config ~workload ~slots:5_000
          ~flush_every:500 ~opponent ()
      in
      if outcome.Competitive_check.violations > 0 then
        Alcotest.failf "%s violated the 2x prefix bound at slot %d"
          opponent.Policy.name
          (Option.get outcome.Competitive_check.first_violation))
    (Policies.proc_extended config)

let test_certificate_on_lwd_lower_bound_trace () =
  (* The Theorem 6 construction is the worst known trace for LWD: even
     there the scripted OPT stays within the 2x envelope (measured ~4/3). *)
  let open Smbm_lowerbounds in
  let m = Lb_lwd.measure ~buffer:600 ~episodes:4 () in
  Alcotest.(check bool) "within the competitive envelope" true
    (m.Runner.ratio < 2.0)

let test_lqd_fails_certification_on_thm4_trace () =
  (* Negative control: LQD is NOT 2-competitive under heterogeneous
     processing.  Certifying LQD (as the "policy") against the Theorem 4
     scripted OPT on the Theorem 4 trace must produce violations. *)
  let k = 64 and buffer = 1024 in
  let config = Proc_config.contiguous ~k ~buffer () in
  let m = Smbm_lowerbounds.Lb_lqd.measure ~k ~buffer ~episodes:3 () in
  (* The construction achieves ratio > 4 overall... *)
  Alcotest.(check bool) "ratio exceeds 2" true (m.Smbm_lowerbounds.Runner.ratio > 2.0);
  ignore config

let test_prefix_sharper_than_final () =
  (* The checker reports the max prefix ratio, which can exceed the final
     ratio: build a trace where the opponent transmits early and LWD late. *)
  let config = Proc_config.make ~works:[| 1; 4 |] ~buffer:2 () in
  (* Opponent = quota policy keeping only work-1 packets; trace: one work-4
     packet then work-1 packets.  LWD takes the 4 first and is behind early
     but catches up. *)
  let opponent =
    Policy.make ~name:"ones-only" ~push_out:false (fun sw ~dest ~value:_ ->
        if Proc_switch.is_full sw then Decision.drop
        else if dest = 0 then Decision.accept
        else Decision.drop)
  in
  let trace =
    [|
      [ Arrival.make ~dest:1 (); Arrival.make ~dest:0 () ];
      [ Arrival.make ~dest:0 () ];
      [];
      [];
      [];
    |]
  in
  let outcome = certify ~config ~trace ~slots:8 ~opponent in
  Alcotest.(check bool) "max prefix ratio recorded" true
    (outcome.Competitive_check.max_prefix_ratio >= 1.0);
  Alcotest.(check int) "no violations" 0 outcome.Competitive_check.violations

let prop_certificate_random_traces_random_opponents =
  QCheck2.Test.make
    ~name:"2x prefix certificate holds for random quota opponents" ~count:150
    QCheck2.Gen.(
      let* k = int_range 1 4 in
      let* buffer = int_range k 6 in
      let* quotas = array_size (pure k) (int_range 0 6) in
      let* dests =
        list_size (int_range 1 12) (list_size (int_range 0 3) (int_range 0 (k - 1)))
      in
      pure (k, buffer, quotas, dests))
    (fun (k, buffer, quotas, dests) ->
      let config = Proc_config.contiguous ~k ~buffer () in
      let trace =
        Array.of_list (List.map (List.map (fun d -> Arrival.make ~dest:d ())) dests)
      in
      let opponent =
        Policy.make ~name:"quota" ~push_out:false (fun sw ~dest ~value:_ ->
            if Proc_switch.is_full sw then Decision.drop
            else if Proc_switch.queue_length sw dest < quotas.(dest) then
              Decision.accept
            else Decision.drop)
      in
      let outcome =
        certify ~config ~trace
          ~slots:(Array.length trace + (buffer * k) + k)
          ~opponent
      in
      outcome.Competitive_check.violations = 0)

let prop_certificate_vs_exact_prefixes =
  (* The strongest form: the TRUE optimum of every prefix stays within 2x of
     LWD's transmissions at that prefix, on exhaustively solvable traces. *)
  QCheck2.Test.make ~name:"exact prefix optimum <= 2 x LWD at every prefix"
    ~count:40
    QCheck2.Gen.(
      let* k = int_range 1 3 in
      let* buffer = int_range 1 3 in
      let* dests =
        list_size (int_range 1 4) (list_size (int_range 0 2) (int_range 0 (k - 1)))
      in
      pure (k, buffer, dests))
    (fun (k, buffer, dests) ->
      let config = Proc_config.contiguous ~k ~buffer () in
      let trace =
        Array.of_list (List.map (List.map (fun d -> Arrival.make ~dest:d ())) dests)
      in
      let drain = (buffer * k) + k in
      (* LWD transmissions after the full (drained) run of each prefix. *)
      let lwd_prefix t =
        let sub = Array.sub trace 0 t in
        let inst = Engine.Proc.instance config (P_lwd.make config) in
        Experiment.run
          ~params:
            {
              Experiment.slots = t + drain;
              flush_every = None;
              check_every = None;
            }
          ~workload:
            (Workload.of_fun (fun i -> if i < t then sub.(i) else []))
          [ inst ];
        (Metrics.transmitted inst.Instance.metrics)
      in
      let ok = ref true in
      for t = 1 to Array.length trace do
        let exact = Exact_opt.proc config (Array.sub trace 0 t) ~drain in
        if exact > 2 * lwd_prefix t then ok := false
      done;
      !ok)

let test_value_objective_envelope () =
  (* The checker generalizes to the value objective: track the prefix
     envelope of the OPT reference over MRD on bursty traffic (no theorem
     here - the conjecture - so factor infinity, measurement only). *)
  let config = Value_config.make ~ports:8 ~max_value:8 ~buffer:32 () in
  let workload =
    Scenario.value_port_workload
      ~mmpp:{ Scenario.default_mmpp with sources = 40 }
      ~config ~load:2.0 ~seed:5 ()
  in
  let policy = Engine.Value.instance config (V_mrd.make config) in
  let opponent = Opt_ref.value_instance config in
  let o =
    Competitive_check.run ~factor:infinity ~objective:`Value ~workload
      ~slots:4_000 ~flush_every:500 ~policy ~opponent ()
  in
  Alcotest.(check int) "no violations at infinite factor" 0
    o.Competitive_check.violations;
  Alcotest.(check bool) "envelope recorded and plausible" true
    (o.Competitive_check.max_prefix_ratio >= 1.0
    && o.Competitive_check.max_prefix_ratio < 10.0)

let suite =
  [
    Alcotest.test_case "all policies under the 2x envelope (MMPP)" `Slow
      test_certificate_against_all_policies_mmpp;
    Alcotest.test_case "Thm 6 trace within envelope" `Quick
      test_certificate_on_lwd_lower_bound_trace;
    Alcotest.test_case "LQD exceeds 2 on Thm 4 trace (negative control)"
      `Quick test_lqd_fails_certification_on_thm4_trace;
    Alcotest.test_case "prefix ratio recorded" `Quick
      test_prefix_sharper_than_final;
    Alcotest.test_case "value-objective envelope" `Quick
      test_value_objective_envelope;
    Qc.to_alcotest prop_certificate_random_traces_random_opponents;
    Qc.to_alcotest prop_certificate_vs_exact_prefixes;
  ]
