open Smbm_core
open Smbm_traffic
open Smbm_sim

(* --- Metrics --- *)

let test_metrics_conservation () =
  let m = Metrics.create () in
  for _ = 1 to 7 do
    Metrics.record_arrival m;
    Metrics.record_accept m
  done;
  for _ = 1 to 3 do
    Metrics.record_arrival m;
    Metrics.record_drop m
  done;
  Metrics.record_transmissions m ~count:4 ~value:4;
  Metrics.record_push_out m;
  Metrics.record_flush m 1;
  Metrics.check_conservation m;
  Alcotest.(check int) "in buffer" 1 (Metrics.in_buffer m);
  (* An extra drop without its arrival breaks arrivals = accepted + dropped. *)
  Metrics.record_drop m;
  match Metrics.check_conservation m with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "inconsistent metrics accepted"

let test_metrics_throughput_objectives () =
  let m = Metrics.create () in
  Metrics.record_transmissions m ~count:5 ~value:17;
  Alcotest.(check int) "packets" 5 (Metrics.throughput_of `Packets m);
  Alcotest.(check int) "value" 17 (Metrics.throughput_of `Value m)

(* --- Proc engine --- *)

let contiguous k buffer = Proc_config.contiguous ~k ~buffer ()

let test_proc_engine_greedy_run () =
  (* Two work-1 arrivals per slot at a 2-port switch with ample buffer:
     everything is transmitted with no drops. *)
  let config = Proc_config.uniform ~n:2 ~work:1 ~buffer:8 () in
  let inst = Engine.Proc.instance config (P_lwd.make config) in
  let w =
    Workload.of_fun (fun _ -> [ Arrival.make ~dest:0 (); Arrival.make ~dest:1 () ])
  in
  Experiment.run
    ~params:{ Experiment.slots = 100; flush_every = None; check_every = Some 1 }
    ~workload:w [ inst ];
  Alcotest.(check int) "arrivals" 200 (Metrics.arrivals inst.metrics);
  Alcotest.(check int) "transmitted" 200 (Metrics.transmitted inst.metrics);
  Alcotest.(check int) "dropped" 0 (Metrics.dropped inst.metrics)

let test_proc_engine_drop_counted () =
  let config = contiguous 2 2 in
  let inst = Engine.Proc.instance config (P_nest.make config) in
  (* NEST threshold B/n = 1; a 3-burst to port 0 gets 1 accepted, 2 dropped. *)
  let w = Workload.of_slots [| List.init 3 (fun _ -> Arrival.make ~dest:0 ()) |] in
  Experiment.run
    ~params:{ Experiment.slots = 1; flush_every = None; check_every = Some 1 }
    ~workload:w [ inst ];
  Alcotest.(check int) "accepted" 1 (Metrics.accepted inst.metrics);
  Alcotest.(check int) "dropped" 2 (Metrics.dropped inst.metrics)

let test_proc_engine_push_out_counted () =
  let config = contiguous 2 2 in
  let inst, sw = Engine.Proc.create config (P_lwd.make config) in
  (* Fill with two work-1 packets, then a work-2 arrival pushes one out?
     LWD: W0 = 2 (virtual includes dest), W1 virtual = 2 - tie, larger work
     wins: victim is Q1 = dest, so drop.  Use a work-1 arrival onto heavier
     queue instead: fill Q1 (work 2) with 2 packets (W=4), arrival for port
     0: W0 virtual = 1 < 4: push out from Q1. *)
  let w =
    Workload.of_slots
      [|
        [ Arrival.make ~dest:1 (); Arrival.make ~dest:1 (); Arrival.make ~dest:0 () ];
      |]
  in
  Experiment.run
    ~params:{ Experiment.slots = 1; flush_every = None; check_every = Some 1 }
    ~workload:w [ inst ];
  Alcotest.(check int) "accepted" 3 (Metrics.accepted inst.metrics);
  Alcotest.(check int) "pushed out" 1 (Metrics.pushed_out inst.metrics);
  (* Transmission already ran: port 0's work-1 packet went out; the evicted
     queue kept a single packet. *)
  Alcotest.(check int) "port 0 transmitted" 1 (Metrics.transmitted inst.metrics);
  Alcotest.(check int) "victim queue shrank" 1 (Proc_switch.queue_length sw 1)

let test_proc_engine_rejects_illegal_push_out () =
  let config = contiguous 2 4 in
  let rogue =
    Policy.make ~name:"rogue" ~push_out:true (fun _sw ~dest:_ ~value:_ ->
        Decision.push_out 0)
  in
  let inst = Engine.Proc.instance config rogue in
  match inst.arrive_dv ~dest:0 ~value:1 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "push-out with free space must be rejected"

let test_proc_engine_latency () =
  let config = contiguous 1 4 in
  let inst = Engine.Proc.instance config (P_lwd.make config) in
  (* One work-1 packet arriving at slot 0 transmits at slot 0: latency 0. *)
  let w = Workload.of_slots [| [ Arrival.make ~dest:0 () ] |] in
  Experiment.run
    ~params:{ Experiment.slots = 3; flush_every = None; check_every = None }
    ~workload:w [ inst ];
  Alcotest.(check int) "latency samples" 1
    (Smbm_prelude.Running_stats.count (Metrics.latency_stats inst.metrics));
  Alcotest.(check (float 1e-9)) "same-slot latency" 0.0
    (Smbm_prelude.Running_stats.mean (Metrics.latency_stats inst.metrics))

let test_flushout () =
  let config = contiguous 1 4 in
  (* Work-1 port, one arrival per slot, flush every 2 slots: the arrival of a
     slot is transmitted the same slot, so flushes discard nothing; with a
     work-2... use k=2 port only (dest 0 work 1? contiguous 1 port work 1).
     Fill 3 packets in slot 0: one transmits, two remain, flush discards at
     slot boundary. *)
  let inst = Engine.Proc.instance config (P_lwd.make config) in
  let w = Workload.of_slots [| List.init 3 (fun _ -> Arrival.make ~dest:0 ()) |] in
  Experiment.run
    ~params:{ Experiment.slots = 2; flush_every = Some 1; check_every = Some 1 }
    ~workload:w [ inst ];
  Alcotest.(check int) "transmitted" 1 (Metrics.transmitted inst.metrics);
  Alcotest.(check int) "flushed" 2 (Metrics.flushed inst.metrics);
  Alcotest.(check int) "in buffer" 0 (Metrics.in_buffer inst.metrics)

(* --- Value engine --- *)

let test_value_engine_value_accounting () =
  let config = Value_config.make ~ports:2 ~max_value:9 ~buffer:4 () in
  let inst = Engine.Value.instance config (V_mrd.make config) in
  let w =
    Workload.of_slots
      [| [ Arrival.make ~dest:0 ~value:9 (); Arrival.make ~dest:1 ~value:3 () ] |]
  in
  Experiment.run
    ~params:{ Experiment.slots = 1; flush_every = None; check_every = Some 1 }
    ~workload:w [ inst ];
  Alcotest.(check int) "packets" 2 (Metrics.transmitted inst.metrics);
  Alcotest.(check int) "value" 12 (Metrics.transmitted_value inst.metrics)

let test_value_engine_push_out () =
  let config = Value_config.make ~ports:1 ~max_value:9 ~buffer:1 () in
  let inst = Engine.Value.instance config (V_mvd.make config) in
  let w =
    Workload.of_slots
      [| [ Arrival.make ~dest:0 ~value:1 (); Arrival.make ~dest:0 ~value:5 () ] |]
  in
  Experiment.run
    ~params:{ Experiment.slots = 1; flush_every = None; check_every = Some 1 }
    ~workload:w [ inst ];
  Alcotest.(check int) "pushed out" 1 (Metrics.pushed_out inst.metrics);
  Alcotest.(check int) "value kept" 5 (Metrics.transmitted_value inst.metrics)

(* --- OPT reference --- *)

let test_opt_proc_smallest_first () =
  let config = contiguous 2 4 in
  (* cores = n * C = 2; buffer holds works {1, 2}; slot 1: both get a cycle,
     the 1 completes. *)
  let opt = Opt_ref.proc_instance config in
  opt.arrive_dv ~dest:1 ~value:1;
  opt.arrive_dv ~dest:0 ~value:1;
  opt.transmit ();
  Alcotest.(check int) "work-1 done first" 1 (Metrics.transmitted opt.metrics);
  opt.transmit ();
  Alcotest.(check int) "work-2 done next" 2 (Metrics.transmitted opt.metrics);
  opt.check ()

let test_opt_proc_admission_evicts_largest () =
  let config = contiguous 3 2 in
  let opt = Opt_ref.proc_instance config in
  opt.arrive_dv ~dest:2 ~value:1;
  opt.arrive_dv ~dest:2 ~value:1;
  (* Buffer full of work-3; a work-1 arrival evicts one. *)
  opt.arrive_dv ~dest:0 ~value:1;
  Alcotest.(check int) "pushed out" 1 (Metrics.pushed_out opt.metrics);
  Alcotest.(check int) "occupancy" 2 (opt.occupancy ());
  (* A work-3 arrival cannot displace anything better. *)
  opt.arrive_dv ~dest:2 ~value:1;
  Alcotest.(check int) "dropped" 1 (Metrics.dropped opt.metrics);
  opt.check ()

let test_opt_value_largest_first () =
  (* One port at speedup 1: one core. *)
  let config = Value_config.make ~ports:1 ~max_value:9 ~buffer:4 ~speedup:1 () in
  let opt = Opt_ref.value_instance config in
  opt.arrive_dv ~dest:0 ~value:2;
  opt.arrive_dv ~dest:0 ~value:7;
  opt.transmit ();
  Alcotest.(check int) "value 7 first" 7 (Metrics.transmitted_value opt.metrics);
  opt.check ()

let test_opt_value_admission_evicts_min () =
  let config = Value_config.make ~ports:1 ~max_value:9 ~buffer:2 () in
  let opt = Opt_ref.value_instance config in
  opt.arrive_dv ~dest:0 ~value:1;
  opt.arrive_dv ~dest:0 ~value:2;
  opt.arrive_dv ~dest:0 ~value:9;
  Alcotest.(check int) "pushed out the 1" 1 (Metrics.pushed_out opt.metrics);
  opt.arrive_dv ~dest:0 ~value:2;
  Alcotest.(check int) "no gain, dropped" 1 (Metrics.dropped opt.metrics);
  opt.check ()

(* OPT reference dominates every real policy on identical traffic: it relaxes
   the switch (free core assignment) and keeps the cheapest work. *)
let prop_opt_dominates_policies =
  QCheck2.Test.make
    ~name:"single-PQ reference dominates every policy per trace" ~count:60
    QCheck2.Gen.(
      let* k = int_range 1 4 in
      let* buffer = int_range k 8 in
      let* slots = int_range 1 30 in
      let* arrivals =
        list_size (pure slots) (list_size (int_range 0 4) (int_range 0 (k - 1)))
      in
      pure (k, buffer, arrivals))
    (fun (k, buffer, arrivals) ->
      let config = Proc_config.contiguous ~k ~buffer () in
      let slots_arr =
        Array.of_list
          (List.map (List.map (fun dest -> Arrival.make ~dest ())) arrivals)
      in
      (* Give both sides time to drain. *)
      let total_slots = Array.length slots_arr + (buffer * k) in
      List.for_all
        (fun policy ->
          let alg = Engine.Proc.instance config policy in
          let opt = Opt_ref.proc_instance config in
          Experiment.run
            ~params:
              { Experiment.slots = total_slots; flush_every = None; check_every = None }
            ~workload:(Workload.of_slots slots_arr) [ alg; opt ];
          (Metrics.transmitted opt.metrics) >= (Metrics.transmitted alg.metrics))
        (Policies.proc config))

(* --- batch path = single path --- *)

module Flight = Smbm_obs.Flight

let batch_pcfg = Proc_config.contiguous ~k:4 ~buffer:6 ()
let batch_vcfg = Value_config.make ~ports:4 ~max_value:8 ~buffer:6 ()

(* Every instance kind whose slot path is [arrive_batch]: the proc and
   value engines under push-out policies, and both OPT references. *)
let batch_subjects : (string * (Flight.t -> Instance.t)) list =
  let proc p events = Engine.Proc.instance ~events batch_pcfg p in
  let value p events = Engine.Value.instance ~events batch_vcfg p in
  [
    ("proc LWD", proc (P_lwd.make batch_pcfg));
    ("proc BPD", proc (P_bpd.make batch_pcfg));
    ("value MRD", value (V_mrd.make batch_vcfg));
    ("value MVD1", value (V_mvd.make ~protect_last:true batch_vcfg));
    ("OPT proc", fun events -> Opt_ref.proc_instance ~events batch_pcfg);
    ("OPT value", fun events -> Opt_ref.value_instance ~events batch_vcfg);
  ]

(* Slots of (dest, value) arrivals on 4 ports, values 1..8 (the proc
   subjects are unit-priced and store every value as 1). *)
let gen_slots =
  QCheck2.Gen.(
    list_size (int_range 1 30)
      (list_size (int_range 0 9) (pair (int_range 0 3) (int_range 1 8))))

let fill batch arrivals =
  Arrival_batch.clear batch;
  List.iter
    (fun (dest, value) -> Arrival_batch.push batch ~dest ~value)
    arrivals

let per_port (inst : Instance.t) =
  match inst.ports with
  | None -> []
  | Some p ->
    List.init (Port_stats.n p) (fun i ->
        (Port_stats.transmitted p i, Port_stats.transmitted_value p i))

let flush_due i = i mod 7 = 6

(* Counters, per-port tallies and events of a run, stepped either through
   [Instance.step_batch] or arrival by arrival through [arrive_dv]. *)
let run_slots ~batched mk slots =
  let ring = Flight.create ~cap:8192 () in
  let inst = mk ring in
  let batch = Arrival_batch.create () in
  List.iteri
    (fun i arrivals ->
      if batched then begin
        fill batch arrivals;
        Instance.step_batch inst ~batch
      end
      else begin
        List.iter (fun (dest, value) -> inst.arrive_dv ~dest ~value) arrivals;
        inst.transmit ();
        inst.end_slot ()
      end;
      if flush_due i then inst.flush ();
      inst.check ())
    slots;
  (Metrics.to_jsonl inst.metrics, per_port inst, Flight.events ring)

let prop_batch_equals_single =
  QCheck2.Test.make ~name:"step_batch = folding arrive_dv, every engine"
    ~count:60 gen_slots (fun slots ->
      List.for_all
        (fun (name, mk) ->
          if (mk (Flight.create ~cap:1 ())).Instance.arrive_batch = None then
            QCheck2.Test.fail_reportf "%s: no batch path" name;
          run_slots ~batched:true mk slots = run_slots ~batched:false mk slots
          || QCheck2.Test.fail_reportf "%s: batch and single paths differ" name)
        batch_subjects)

exception Injected

(* [inner], except that its [j]-th admission (counting from 0) raises. *)
let raising_at j (inner : 'sw Policy.t) =
  let calls = ref 0 in
  Policy.make ~name:inner.name ~push_out:true (fun sw ~dest ~value ->
      let c = !calls in
      incr calls;
      if c = j then raise Injected;
      inner.admit sw ~dest ~value)

let counters m =
  Metrics.
    [
      arrivals m; accepted m; dropped m; pushed_out m; transmitted m;
      transmitted_value m; flushed m;
    ]

let replay_of ring name =
  let lines =
    List.mapi
      (fun i event -> { Smbm_forensics.Trace_file.lineno = i + 1; event })
      (Flight.dump ring)
  in
  Smbm_forensics.Replay.replay
    {
      Smbm_forensics.Trace_file.src = name;
      lines;
      evicted = 0;
      oldest_slot = 0;
    }

(* (name, an engine whose policy raises at its [j]-th admission, a twin
   whose policy does not) *)
let raise_subjects j =
  let proc p events = Engine.Proc.instance ~events batch_pcfg p in
  let value p events = Engine.Value.instance ~events batch_vcfg p in
  [
    ( "proc LWD",
      proc (raising_at j (P_lwd.make batch_pcfg)),
      proc (P_lwd.make batch_pcfg) );
    ( "value MRD",
      value (raising_at j (V_mrd.make batch_vcfg)),
      value (V_mrd.make batch_vcfg) );
  ]

(* A policy raising at arrival [j] of a slot's batch: the exception reaches
   the caller, and the counters read as if each event had been recorded on
   its own — every earlier arrival settled, the raising one counted with no
   accept, drop or push-out.  Replaying the ring reproduces them. *)
let prop_raise_mid_batch =
  QCheck2.Test.make ~name:"raise mid-batch leaves per-event counters"
    ~count:60
    QCheck2.Gen.(pair gen_slots (int_range 0 1_000))
    (fun (slots, j) ->
      let total = List.fold_left (fun n s -> n + List.length s) 0 slots in
      QCheck2.assume (total > 0);
      let j = j mod total in
      List.for_all
        (fun (name, mk_raising, mk_twin) ->
          let ring = Flight.create ~cap:8192 () in
          let inst = mk_raising ring in
          let twin = mk_twin (Flight.create ~cap:1 ()) in
          let batch = Arrival_batch.create () in
          (* Step both until arrival [j]; the twin takes the raising slot's
             earlier arrivals one by one and stops before [j]. *)
          let rec go i seen = function
            | [] -> QCheck2.Test.fail_reportf "%s: no raise" name
            | arrivals :: rest ->
              let n = List.length arrivals in
              fill batch arrivals;
              if seen + n <= j then begin
                Instance.step_batch inst ~batch;
                Instance.step_batch twin ~batch;
                if flush_due i then begin
                  inst.flush ();
                  twin.flush ()
                end;
                go (i + 1) (seen + n) rest
              end
              else begin
                (match Instance.step_batch inst ~batch with
                | () -> QCheck2.Test.fail_reportf "%s: no raise" name
                | exception Injected -> ());
                List.iteri
                  (fun a (dest, value) ->
                    if seen + a < j then twin.arrive_dv ~dest ~value)
                  arrivals
              end
          in
          go 0 0 slots;
          let expected =
            match counters twin.metrics with
            | arrivals :: rest -> (arrivals + 1) :: rest
            | [] -> []
          in
          if counters inst.metrics <> expected then
            QCheck2.Test.fail_reportf "%s: counters differ from per-event" name;
          let r = replay_of ring name in
          Metrics.to_jsonl r.Smbm_forensics.Replay.metrics
          = Metrics.to_jsonl inst.metrics
          || QCheck2.Test.fail_reportf "%s: replay differs" name)
        (raise_subjects j))

(* --- Experiment --- *)

let test_experiment_lockstep_shares_traffic () =
  let config = contiguous 2 4 in
  let a = Engine.Proc.instance ~name:"a" config (P_lwd.make config) in
  let b = Engine.Proc.instance ~name:"b" config (P_lwd.make config) in
  let w =
    Workload.of_fun (fun slot -> [ Arrival.make ~dest:(slot mod 2) () ])
  in
  Experiment.run
    ~params:{ Experiment.slots = 50; flush_every = None; check_every = Some 5 }
    ~workload:w [ a; b ];
  Alcotest.(check int) "identical metrics" (Metrics.transmitted a.metrics)
    (Metrics.transmitted b.metrics);
  Alcotest.(check int) "all arrivals seen once" 50 (Metrics.arrivals a.metrics)

let test_experiment_ratio () =
  let mk name transmitted =
    let m = Metrics.create () in
    Metrics.record_transmissions m ~count:transmitted ~value:(2 * transmitted);
    {
      Instance.name;
      arrive_dv = (fun ~dest:_ ~value:_ -> ());
      arrive_batch = None;
      transmit = (fun () -> ());
      end_slot = (fun () -> ());
      flush = (fun () -> ());
      occupancy = (fun () -> 0);
      metrics = m;
      ports = None;
      check = (fun () -> ());
    }
  in
  let opt = mk "opt" 10 and alg = mk "alg" 4 in
  Alcotest.(check (float 1e-9)) "packets ratio" 2.5
    (Experiment.ratio ~objective:`Packets ~opt ~alg);
  Alcotest.(check (float 1e-9)) "value ratio" 2.5
    (Experiment.ratio ~objective:`Value ~opt ~alg);
  let zero = mk "zero" 0 in
  Alcotest.(check (float 1e-9)) "zero vs zero" 1.0
    (Experiment.ratio ~objective:`Packets ~opt:zero ~alg:zero);
  Alcotest.(check bool) "infinite ratio" true
    (Experiment.ratio ~objective:`Packets ~opt ~alg:zero = infinity)

(* --- Sweep --- *)

let test_sweep_panel_definitions () =
  let p1 = Sweep.panel 1 and p5 = Sweep.panel 5 and p9 = Sweep.panel 9 in
  Alcotest.(check bool) "panel 1 is proc/K" true
    (p1.Sweep.model = Sweep.Proc && p1.Sweep.axis = Sweep.K);
  Alcotest.(check bool) "panel 5 is value-uniform/B" true
    (p5.Sweep.model = Sweep.Value_uniform && p5.Sweep.axis = Sweep.B);
  Alcotest.(check bool) "panel 9 is value-port/C" true
    (p9.Sweep.model = Sweep.Value_port && p9.Sweep.axis = Sweep.C);
  (match Sweep.panel 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "panel 0 accepted");
  match Sweep.panel 10 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "panel 10 accepted"

let tiny_base =
  {
    Sweep.default_base with
    Sweep.k = 4;
    buffer = 16;
    slots = 2_000;
    flush_every = Some 500;
    mmpp = { Smbm_traffic.Scenario.default_mmpp with sources = 50 };
  }

let test_sweep_run_point_sane () =
  let ratios = Sweep.run_point ~base:tiny_base ~model:Sweep.Proc ~axis:Sweep.K ~x:4 () in
  Alcotest.(check int) "seven policies" 7 (List.length ratios);
  List.iter
    (fun (name, r) ->
      if r < 0.999 then
        Alcotest.failf "%s beat the OPT reference: %f" name r;
      if Float.is_nan r then Alcotest.failf "%s ratio is NaN" name)
    ratios

let test_sweep_panel_runs () =
  let outcome =
    Smbm_par.Par_sweep.run_panel ~jobs:0 ~base:tiny_base ~xs:[ 2; 4 ] 4
  in
  Alcotest.(check int) "two points" 2 (List.length outcome.Sweep.points);
  List.iter
    (fun (p : Sweep.point) ->
      Alcotest.(check int) "six value policies" 6 (List.length p.ratios))
    outcome.Sweep.points

let test_sweep_objective () =
  Alcotest.(check bool) "proc counts packets" true
    (Sweep.objective Sweep.Proc = `Packets);
  Alcotest.(check bool) "value counts value" true
    (Sweep.objective Sweep.Value_port = `Value)

let test_model_reference_and_objective () =
  let proc = Model.Proc (Proc_config.contiguous ~k:4 ~buffer:8 ()) in
  let value =
    Model.Value_uniform (Value_config.make ~ports:4 ~max_value:4 ~buffer:8 ())
  in
  Alcotest.check_raises "a reference of another model"
    (Invalid_argument "Model.workload: the reference is another model")
    (fun () -> ignore (Model.workload ~reference:value proc ~load:1.0 ~seed:1));
  Alcotest.(check bool) "the combined work + value model counts value" true
    (Model.objective
       (Model.Proc (Proc_config.contiguous ~k:4 ~buffer:8 ~max_value:4 ()))
    = `Value)

let suite =
  [
    Alcotest.test_case "metrics conservation" `Quick test_metrics_conservation;
    Alcotest.test_case "metrics objectives" `Quick
      test_metrics_throughput_objectives;
    Alcotest.test_case "proc engine greedy run" `Quick
      test_proc_engine_greedy_run;
    Alcotest.test_case "proc engine counts drops" `Quick
      test_proc_engine_drop_counted;
    Alcotest.test_case "proc engine counts push-outs" `Quick
      test_proc_engine_push_out_counted;
    Alcotest.test_case "proc engine rejects illegal push-out" `Quick
      test_proc_engine_rejects_illegal_push_out;
    Alcotest.test_case "proc engine latency" `Quick test_proc_engine_latency;
    Alcotest.test_case "flushout" `Quick test_flushout;
    Alcotest.test_case "value engine accounting" `Quick
      test_value_engine_value_accounting;
    Alcotest.test_case "value engine push-out" `Quick
      test_value_engine_push_out;
    Alcotest.test_case "OPT proc smallest first" `Quick
      test_opt_proc_smallest_first;
    Alcotest.test_case "OPT proc admission" `Quick
      test_opt_proc_admission_evicts_largest;
    Alcotest.test_case "OPT value largest first" `Quick
      test_opt_value_largest_first;
    Alcotest.test_case "OPT value admission" `Quick
      test_opt_value_admission_evicts_min;
    Alcotest.test_case "experiment lockstep" `Quick
      test_experiment_lockstep_shares_traffic;
    Alcotest.test_case "experiment ratio" `Quick test_experiment_ratio;
    Alcotest.test_case "sweep panel definitions" `Quick
      test_sweep_panel_definitions;
    Alcotest.test_case "sweep point sanity" `Quick test_sweep_run_point_sane;
    Alcotest.test_case "sweep panel run" `Quick test_sweep_panel_runs;
    Alcotest.test_case "sweep objective" `Quick test_sweep_objective;
    Alcotest.test_case "model reference and objective" `Quick
      test_model_reference_and_objective;
    Qc.to_alcotest prop_opt_dominates_policies;
    Qc.to_alcotest prop_batch_equals_single;
    Qc.to_alcotest prop_raise_mid_batch;
  ]
