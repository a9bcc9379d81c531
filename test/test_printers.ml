(* Smoke tests for every pretty-printer: they must produce non-empty,
   exception-free output on representative values (format-string bugs only
   surface at run time). *)

open Smbm_core
open Smbm_sim

let render pp v = Format.asprintf "%a" pp v

let nonempty name s =
  if String.length (String.trim s) = 0 then
    Alcotest.failf "%s printed nothing" name

let test_core_printers () =
  nonempty "Arrival.pp" (render Arrival.pp (Arrival.make ~dest:1 ~value:2 ()));
  nonempty "Proc_config.pp"
    (render Proc_config.pp (Proc_config.contiguous ~k:3 ~buffer:6 ()));
  nonempty "Value_config.pp"
    (render Value_config.pp (Value_config.make ~ports:2 ~max_value:3 ~buffer:4 ()));
  (* Decisions are immediate ints now; they print exactly as the variant
     did. *)
  Alcotest.(check (list string))
    "Decision.pp"
    [ "accept"; "push-out(Q2)"; "drop" ]
    (List.map (render Decision.pp)
       [ Decision.accept; Decision.push_out 2; Decision.drop ]);
  Alcotest.check_raises "negative victim"
    (Invalid_argument "Decision.push_out: negative victim") (fun () ->
      ignore (Decision.push_out (-1) : Decision.t))

let test_prelude_printers () =
  let open Smbm_prelude in
  let stats = Running_stats.create () in
  nonempty "Running_stats.pp empty" (render Running_stats.pp stats);
  Running_stats.add stats 4.2;
  nonempty "Running_stats.pp" (render Running_stats.pp stats);
  let h = Histogram.create () in
  nonempty "Histogram.pp empty" (render Histogram.pp h);
  Histogram.add h 10.0;
  nonempty "Histogram.pp" (render Histogram.pp h)

let test_sim_printers () =
  let m = Metrics.create () in
  Metrics.record_arrival m;
  Metrics.record_arrival m;
  Metrics.record_arrival m;
  Metrics.record_accept m;
  Metrics.record_accept m;
  Metrics.record_drop m;
  nonempty "Metrics.pp" (render Metrics.pp m);
  let ports = Port_stats.create ~n:2 in
  Port_stats.record ports ~port:0 ~value:1;
  nonempty "Port_stats.pp" (render Port_stats.pp ports)

let test_traffic_printers () =
  let open Smbm_traffic in
  let trace =
    Trace.Compact.of_slots [| [ Arrival.make ~dest:0 () ]; [] |]
  in
  nonempty "Trace_stats.pp" (render Trace_stats.pp (Trace_stats.analyze trace))

let test_analysis_printers () =
  let open Smbm_analysis in
  let config = Proc_config.contiguous ~k:2 ~buffer:2 () in
  let greedy =
    Policy.make ~name:"greedy" ~push_out:false (fun sw ~dest:_ ~value:_ ->
        if Proc_switch.is_full sw then Decision.drop else Decision.accept)
  in
  let r =
    Mapping_certifier.run ~config ~opponent:greedy
      ~workload:
        (Smbm_traffic.Workload.of_slots [| [ Arrival.make ~dest:0 () ] |])
      ~slots:3 ()
  in
  nonempty "Mapping_certifier.pp_report" (render Mapping_certifier.pp_report r)

let suite =
  [
    Alcotest.test_case "core printers" `Quick test_core_printers;
    Alcotest.test_case "prelude printers" `Quick test_prelude_printers;
    Alcotest.test_case "sim printers" `Quick test_sim_printers;
    Alcotest.test_case "traffic printers" `Quick test_traffic_printers;
    Alcotest.test_case "analysis printers" `Quick test_analysis_printers;
  ]
