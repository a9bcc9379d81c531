open Smbm_core
open Smbm_traffic
open Smbm_sim

(* --- hand-checkable cases --- *)

let test_proc_trivial () =
  let config = Proc_config.contiguous ~k:2 ~buffer:2 () in
  (* One work-1 and one work-2 packet: both transmittable. *)
  let trace = [| [ Arrival.make ~dest:0 (); Arrival.make ~dest:1 () ] |] in
  Alcotest.(check int) "both transmitted" 2 (Exact_opt.proc config trace ~drain:4)

let test_proc_forced_choice () =
  (* B = 1, simultaneous work-1 and work-2 arrival: OPT takes the 1 (count
     objective - either gives 1 packet, so the max is 1). *)
  let config = Proc_config.contiguous ~k:2 ~buffer:1 () in
  let trace = [| [ Arrival.make ~dest:1 (); Arrival.make ~dest:0 () ] |] in
  Alcotest.(check int) "one slot, one packet" 1
    (Exact_opt.proc config trace ~drain:4)

let test_proc_prefers_cheap_under_pressure () =
  (* B = 1 and a work-1 arrival EVERY slot, plus a work-2 arrival at slot 0:
     taking 1s every slot transmits 3; taking the 2 first transmits 1 + 1. *)
  let config = Proc_config.contiguous ~k:2 ~buffer:1 () in
  let one = Arrival.make ~dest:0 () and two = Arrival.make ~dest:1 () in
  let trace = [| [ two; one ]; [ one ]; [ one ] |] in
  Alcotest.(check int) "cheap stream wins" 3 (Exact_opt.proc config trace ~drain:3)

let test_proc_no_arrivals () =
  let config = Proc_config.contiguous ~k:2 ~buffer:2 () in
  Alcotest.(check int) "empty trace" 0 (Exact_opt.proc config [||] ~drain:5)

let test_value_trivial () =
  let config = Value_config.make ~ports:2 ~max_value:5 ~buffer:2 () in
  let trace =
    [| [ Arrival.make ~dest:0 ~value:5 (); Arrival.make ~dest:1 ~value:2 () ] |]
  in
  Alcotest.(check int) "total value" 7 (Exact_opt.value config trace ~drain:3)

let test_value_forced_choice () =
  (* B = 1, values 1 and 5 arrive together at the same port: keep the 5. *)
  let config = Value_config.make ~ports:1 ~max_value:5 ~buffer:1 () in
  let trace =
    [| [ Arrival.make ~dest:0 ~value:1 (); Arrival.make ~dest:0 ~value:5 () ] |]
  in
  Alcotest.(check int) "keeps the valuable one" 5
    (Exact_opt.value config trace ~drain:2)

let test_value_port_parallelism () =
  (* Four value-1 packets to one port take 4 slots; spread over two ports
     they take 2.  OPT with 3 slots and drain 0 must exploit both ports. *)
  let config = Value_config.make ~ports:2 ~max_value:1 ~buffer:4 () in
  let a p = Arrival.make ~dest:p ~value:1 () in
  let trace = [| [ a 0; a 0; a 1; a 1 ] |] in
  Alcotest.(check int) "two ports drain in two slots" 4
    (Exact_opt.value config trace ~drain:1)

(* --- property tests: ground-truth ordering --- *)

let tiny_proc_gen =
  QCheck2.Gen.(
    let* k = int_range 1 3 in
    let* buffer = int_range 1 4 in
    let* slots = int_range 1 5 in
    let* trace =
      list_size (pure slots) (list_size (int_range 0 3) (int_range 0 (k - 1)))
    in
    pure (k, buffer, trace))

let proc_trace_of dests =
  Array.of_list (List.map (List.map (fun d -> Arrival.make ~dest:d ())) dests)

let run_proc_policy config trace ~drain policy =
  let inst = Engine.Proc.instance config policy in
  Experiment.run
    ~params:
      {
        Experiment.slots = Array.length trace + drain;
        flush_every = None;
        check_every = Some 1;
      }
    ~workload:(Workload.of_fun (fun i -> if i < Array.length trace then trace.(i) else []))
    [ inst ];
  (Metrics.transmitted inst.metrics)

let prop_exact_between_policies_and_reference =
  QCheck2.Test.make
    ~name:"per trace: policy <= exact OPT <= single-PQ reference (proc)"
    ~count:80 tiny_proc_gen (fun (k, buffer, dests) ->
      let config = Proc_config.contiguous ~k ~buffer () in
      let trace = proc_trace_of dests in
      let drain = (buffer * k) + k in
      let exact = Exact_opt.proc config trace ~drain in
      let reference =
        let opt = Opt_ref.proc_instance config in
        Experiment.run
          ~params:
            {
              Experiment.slots = Array.length trace + drain;
              flush_every = None;
              check_every = None;
            }
          ~workload:(Workload.of_fun (fun i -> if i < Array.length trace then trace.(i) else []))
          [ opt ];
        (Metrics.transmitted opt.Instance.metrics)
      in
      exact <= reference
      && List.for_all
           (fun policy -> run_proc_policy config trace ~drain policy <= exact)
           (Policies.proc config))

let prop_lwd_two_competitive =
  QCheck2.Test.make
    ~name:"Theorem 7 on the ground truth: exact OPT <= 2 x LWD" ~count:120
    tiny_proc_gen (fun (k, buffer, dests) ->
      let config = Proc_config.contiguous ~k ~buffer () in
      let trace = proc_trace_of dests in
      let drain = (buffer * k) + k in
      let exact = Exact_opt.proc config trace ~drain in
      let lwd = run_proc_policy config trace ~drain (P_lwd.make config) in
      exact <= 2 * lwd)

let prop_lqd_two_competitive_uniform_work =
  QCheck2.Test.make
    ~name:"Aiello et al.: exact OPT <= 2 x LQD under uniform work" ~count:80
    QCheck2.Gen.(
      let* n = int_range 1 3 in
      let* work = int_range 1 2 in
      let* buffer = int_range 1 4 in
      let* trace =
        list_size (int_range 1 5)
          (list_size (int_range 0 3) (int_range 0 (n - 1)))
      in
      pure (n, work, buffer, trace))
    (fun (n, work, buffer, dests) ->
      let config = Proc_config.uniform ~n ~work ~buffer () in
      let trace = proc_trace_of dests in
      let drain = (buffer * work) + work in
      let exact = Exact_opt.proc config trace ~drain in
      let lqd = run_proc_policy config trace ~drain (P_lqd.make config) in
      exact <= 2 * lqd)

let tiny_value_gen =
  QCheck2.Gen.(
    let* ports = int_range 1 3 in
    let* k = int_range 1 4 in
    let* buffer = int_range 1 4 in
    let* trace =
      list_size (int_range 1 4)
        (list_size (int_range 0 3)
           (pair (int_range 0 (ports - 1)) (int_range 1 k)))
    in
    pure (ports, k, buffer, trace))

let value_trace_of pairs =
  Array.of_list
    (List.map
       (List.map (fun (d, v) -> Arrival.make ~dest:d ~value:v ()))
       pairs)

let prop_exact_value_ordering =
  QCheck2.Test.make
    ~name:"per trace: policy <= exact OPT <= single-PQ reference (value)"
    ~count:80 tiny_value_gen (fun (ports, k, buffer, pairs) ->
      let config = Value_config.make ~ports ~max_value:k ~buffer () in
      let trace = value_trace_of pairs in
      let drain = buffer + 1 in
      let slots = Array.length trace + drain in
      let exact = Exact_opt.value config trace ~drain in
      let run_value inst =
        Experiment.run
          ~params:{ Experiment.slots = slots; flush_every = None; check_every = Some 1 }
          ~workload:
            (Workload.of_fun (fun i -> if i < Array.length trace then trace.(i) else []))
          [ inst ];
        (Metrics.transmitted_value inst.Instance.metrics)
      in
      let reference = run_value (Opt_ref.value_instance config) in
      exact <= reference
      && List.for_all
           (fun policy ->
             run_value (Engine.Value.instance config policy) <= exact)
           (Policies.value_uniform config))

(* The argmax replay must realise the optimum it reports: its
   [Transmit_bulk] values sum to the returned value, for both queue
   disciplines (FIFO work queues, valued or not, and value-sorted), and
   every arrival is decided exactly once. *)
let replay_realises ~run ~arrivals =
  let f = Smbm_obs.Flight.create ~cap:4096 () in
  let result = run f in
  let sent = ref 0 and seen = ref 0 and decided = ref 0 in
  Smbm_obs.Flight.iter
    (fun (e : Smbm_obs.Event.t) ->
      match e.kind with
      | Smbm_obs.Event.Transmit_bulk { value; _ } -> sent := !sent + value
      | Arrival _ -> incr seen
      | Accept _ | Drop _ -> incr decided
      | _ -> ())
    f;
  Smbm_obs.Flight.dropped f = 0
  && !sent = result && !seen = arrivals && !decided = arrivals

let prop_exact_replay_realises_optimum =
  QCheck2.Test.make
    ~name:"exact replay transmits the optimum (both disciplines)" ~count:150
    QCheck2.Gen.(
      let* fifo = bool in
      let* ports = int_range 1 3 in
      let* max_value = int_range 1 4 in
      let* buffer = int_range 1 4 in
      let* trace =
        list_size (int_range 1 4)
          (list_size (int_range 0 3)
             (pair (int_range 0 (ports - 1)) (int_range 1 max_value)))
      in
      pure (fifo, ports, max_value, buffer, trace))
    (fun (fifo, ports, max_value, buffer, pairs) ->
      let trace = value_trace_of pairs in
      let arrivals = List.length (List.concat pairs) in
      let drain = (buffer * ports) + ports in
      if fifo then
        let config = Proc_config.contiguous ~k:ports ~buffer ~max_value () in
        replay_realises ~arrivals ~run:(fun events ->
            Exact_opt.proc ~events config trace ~drain)
      else
        let config = Value_config.make ~ports ~max_value ~buffer () in
        replay_realises ~arrivals ~run:(fun events ->
            Exact_opt.value ~events config trace ~drain))

let suite =
  [
    Alcotest.test_case "proc trivial" `Quick test_proc_trivial;
    Alcotest.test_case "proc forced choice" `Quick test_proc_forced_choice;
    Alcotest.test_case "proc prefers cheap stream" `Quick
      test_proc_prefers_cheap_under_pressure;
    Alcotest.test_case "proc empty trace" `Quick test_proc_no_arrivals;
    Alcotest.test_case "value trivial" `Quick test_value_trivial;
    Alcotest.test_case "value forced choice" `Quick test_value_forced_choice;
    Alcotest.test_case "value port parallelism" `Quick
      test_value_port_parallelism;
    Qc.to_alcotest prop_exact_between_policies_and_reference;
    Qc.to_alcotest prop_lwd_two_competitive;
    Qc.to_alcotest prop_lqd_two_competitive_uniform_work;
    Qc.to_alcotest prop_exact_value_ordering;
    Qc.to_alcotest prop_exact_replay_realises_optimum;
  ]
