open Smbm_core
open Smbm_traffic
open Smbm_sim

let build ?(every = 2) () =
  let config = Proc_config.uniform ~n:1 ~work:1 ~buffer:4 () in
  let inst = Engine.Proc.instance config (P_lwd.make config) in
  Timeseries.attach ~every inst

let test_validation () =
  let config = Proc_config.uniform ~n:1 ~work:1 ~buffer:4 () in
  let inst = Engine.Proc.instance config (P_lwd.make config) in
  match Timeseries.attach ~every:0 inst with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "every = 0 accepted"

let test_sampling_cadence () =
  let inst, ts = build ~every:3 () in
  let w = Workload.of_fun (fun _ -> [ Arrival.make ~dest:0 () ]) in
  Experiment.run
    ~params:{ Experiment.slots = 10; flush_every = None; check_every = None }
    ~workload:w [ inst ];
  Alcotest.(check int) "samples at slots 3, 6, 9" 3 (Timeseries.samples ts)

let test_throughput_series () =
  (* One arrival per slot, work 1: throughput 1 packet/slot at every
     sample. *)
  let inst, ts = build ~every:2 () in
  let w = Workload.of_fun (fun _ -> [ Arrival.make ~dest:0 () ]) in
  Experiment.run
    ~params:{ Experiment.slots = 8; flush_every = None; check_every = None }
    ~workload:w [ inst ];
  let series = Timeseries.throughput ts in
  List.iter
    (fun (_, y) ->
      Alcotest.(check (float 1e-9)) "one packet per slot" 1.0 y)
    series.Smbm_report.Series.points;
  Alcotest.(check int) "four samples" 4
    (List.length series.Smbm_report.Series.points)

let test_drop_rate_and_occupancy () =
  (* Burst of 6 into B = 4 with one served per slot: drops recorded in the
     first window, occupancy decays in later ones. *)
  let inst, ts = build ~every:2 () in
  let w = Workload.of_slots [| List.init 6 (fun _ -> Arrival.make ~dest:0 ()) |] in
  Experiment.run
    ~params:{ Experiment.slots = 6; flush_every = None; check_every = None }
    ~workload:w [ inst ];
  let drops = Timeseries.drop_rate ts in
  (match drops.Smbm_report.Series.points with
  | (_, first) :: rest ->
    Alcotest.(check bool) "drops in first window" true (first > 0.0);
    List.iter
      (fun (_, y) -> Alcotest.(check (float 1e-9)) "no drops later" 0.0 y)
      rest
  | [] -> Alcotest.fail "no samples");
  let occ = Timeseries.occupancy ts in
  let ys = List.map snd occ.Smbm_report.Series.points in
  (match ys with
  | a :: b :: _ -> Alcotest.(check bool) "occupancy decays" true (a > b)
  | _ -> Alcotest.fail "too few samples")

let test_csv_shape () =
  let inst, ts = build ~every:1 () in
  let w = Workload.of_fun (fun _ -> [ Arrival.make ~dest:0 () ]) in
  Experiment.run
    ~params:{ Experiment.slots = 3; flush_every = None; check_every = None }
    ~workload:w [ inst ];
  let headers, rows = Timeseries.table ts in
  Alcotest.(check int) "3 rows" 3 (List.length rows);
  Alcotest.(check string) "header" "slot,occupancy,throughput,drop_rate"
    (Smbm_report.Csv.row headers)

let test_wrapped_instance_transparent () =
  (* The wrapper must not change the instance's behaviour. *)
  let config = Proc_config.uniform ~n:2 ~work:2 ~buffer:4 () in
  let plain = Engine.Proc.instance config (P_lwd.make config) in
  let wrapped, _ = Timeseries.attach ~every:5 (Engine.Proc.instance config (P_lwd.make config)) in
  let w1 = Workload.of_fun (fun i -> [ Arrival.make ~dest:(i mod 2) () ]) in
  let w2 = Workload.of_fun (fun i -> [ Arrival.make ~dest:(i mod 2) () ]) in
  Experiment.run
    ~params:{ Experiment.slots = 50; flush_every = Some 10; check_every = Some 1 }
    ~workload:w1 [ plain ];
  Experiment.run
    ~params:{ Experiment.slots = 50; flush_every = Some 10; check_every = Some 1 }
    ~workload:w2 [ wrapped ];
  Alcotest.(check int) "identical transmissions"
    (Metrics.transmitted plain.Instance.metrics)
    (Metrics.transmitted wrapped.Instance.metrics)

let suite =
  [
    Alcotest.test_case "validation" `Quick test_validation;
    Alcotest.test_case "sampling cadence" `Quick test_sampling_cadence;
    Alcotest.test_case "throughput series" `Quick test_throughput_series;
    Alcotest.test_case "drop rate and occupancy" `Quick
      test_drop_rate_and_occupancy;
    Alcotest.test_case "csv shape" `Quick test_csv_shape;
    Alcotest.test_case "wrapper transparency" `Quick
      test_wrapped_instance_transparent;
  ]
