open Smbm_sim

let test_basic () =
  let s = Port_stats.create ~n:3 in
  Port_stats.record s ~port:0 ~value:5;
  Port_stats.record s ~port:0 ~value:1;
  Port_stats.record s ~port:2 ~value:2;
  Alcotest.(check int) "port 0 packets" 2 (Port_stats.transmitted s 0);
  Alcotest.(check int) "port 0 value" 6 (Port_stats.transmitted_value s 0);
  Alcotest.(check int) "total" 3 (Port_stats.total s);
  Alcotest.(check int) "starved" 1 (Port_stats.starved_ports s)

let test_jain_extremes () =
  let s = Port_stats.create ~n:4 in
  Alcotest.(check (float 1e-9)) "empty is fair" 1.0
    (Port_stats.jain_index s ~objective:`Packets);
  (* Perfect fairness. *)
  for port = 0 to 3 do
    Port_stats.record s ~port ~value:1
  done;
  Alcotest.(check (float 1e-9)) "equal shares" 1.0
    (Port_stats.jain_index s ~objective:`Packets);
  (* One port monopolizes: index tends to 1/n. *)
  let mono = Port_stats.create ~n:4 in
  for _ = 1 to 100 do
    Port_stats.record mono ~port:2 ~value:1
  done;
  Alcotest.(check (float 1e-9)) "monopoly is 1/n" 0.25
    (Port_stats.jain_index mono ~objective:`Packets)

let test_jain_objectives_differ () =
  (* Equal packet counts but skewed values: packet fairness 1, value
     fairness below 1. *)
  let s = Port_stats.create ~n:2 in
  Port_stats.record s ~port:0 ~value:1;
  Port_stats.record s ~port:1 ~value:9;
  Alcotest.(check (float 1e-9)) "packets fair" 1.0
    (Port_stats.jain_index s ~objective:`Packets);
  Alcotest.(check bool) "value unfair" true
    (Port_stats.jain_index s ~objective:`Value < 0.7)

let test_min_max_share () =
  let s = Port_stats.create ~n:2 in
  Alcotest.(check (pair (float 1e-9) (float 1e-9))) "empty" (0.0, 0.0)
    (Port_stats.min_max_share s);
  Port_stats.record s ~port:0 ~value:1;
  Port_stats.record s ~port:0 ~value:1;
  Port_stats.record s ~port:1 ~value:1;
  let lo, hi = Port_stats.min_max_share s in
  Alcotest.(check (float 1e-9)) "min share" (1.0 /. 3.0) lo;
  Alcotest.(check (float 1e-9)) "max share" (2.0 /. 3.0) hi

let test_clear () =
  let s = Port_stats.create ~n:2 in
  Port_stats.record s ~port:1 ~value:3;
  Port_stats.clear s;
  Alcotest.(check int) "total" 0 (Port_stats.total s)

let test_engine_integration () =
  (* Two ports, one arrival each per slot: the engine's port stats must
     count both ports evenly. *)
  let open Smbm_core in
  let config = Proc_config.uniform ~n:2 ~work:1 ~buffer:8 () in
  let inst = Engine.Proc.instance config (P_lwd.make config) in
  let w =
    Smbm_traffic.Workload.of_fun (fun _ ->
        [ Arrival.make ~dest:0 (); Arrival.make ~dest:1 () ])
  in
  Experiment.run
    ~params:{ Experiment.slots = 20; flush_every = None; check_every = None }
    ~workload:w [ inst ];
  match inst.Instance.ports with
  | Some ports ->
    Alcotest.(check int) "port 0" 20 (Port_stats.transmitted ports 0);
    Alcotest.(check int) "port 1" 20 (Port_stats.transmitted ports 1);
    Alcotest.(check (float 1e-9)) "jain" 1.0
      (Port_stats.jain_index ports ~objective:`Packets)
  | None -> Alcotest.fail "engine instance must expose port stats"

let test_opt_has_no_ports () =
  let open Smbm_core in
  let config = Proc_config.contiguous ~k:2 ~buffer:4 () in
  let opt = Opt_ref.proc_instance config in
  Alcotest.(check bool) "reference has no port structure" true
    (opt.Instance.ports = None)

let suite =
  [
    Alcotest.test_case "basics" `Quick test_basic;
    Alcotest.test_case "jain extremes" `Quick test_jain_extremes;
    Alcotest.test_case "jain objectives" `Quick test_jain_objectives_differ;
    Alcotest.test_case "min/max share" `Quick test_min_max_share;
    Alcotest.test_case "clear" `Quick test_clear;
    Alcotest.test_case "engine integration" `Quick test_engine_integration;
    Alcotest.test_case "reference has no ports" `Quick test_opt_has_no_ports;
  ]
