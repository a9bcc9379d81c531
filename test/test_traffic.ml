open Smbm_prelude
open Smbm_core
open Smbm_traffic

(* --- MMPP sources --- *)

(* A bank of [sources] on-off sources with uniform-port labels. *)
let bank ?(sources = 1) ?(label = Label.uniform_port ~n:4) ~seed ~p_on_to_off
    ~p_off_to_on ~rate () =
  Source_bank.create ~rng:(Rng.create ~seed) ~sources ~p_on_to_off ~p_off_to_on
    ~emission:(Poisson rate) ~label

(* Packets of one slot. *)
let step b =
  let batch = Arrival_batch.create () in
  Source_bank.fill b batch;
  Slot_list.of_batch batch

let test_mmpp_off_emits_nothing () =
  (* Stationary on-probability 0 and no way back on: never on. *)
  let b = bank ~seed:1 ~p_on_to_off:1.0 ~p_off_to_on:0.0 ~rate:5.0 () in
  for _ = 1 to 50 do
    Alcotest.(check int) "silent when off" 0 (List.length (step b))
  done

let test_mmpp_always_on_rate () =
  let b = bank ~seed:2 ~p_on_to_off:0.0 ~p_off_to_on:1.0 ~rate:3.0 () in
  let total = ref 0 in
  let slots = 20_000 in
  for _ = 1 to slots do
    total := !total + List.length (step b)
  done;
  let mean = float_of_int !total /. float_of_int slots in
  Alcotest.(check bool) "mean close to rate" true (abs_float (mean -. 3.0) < 0.1)

let test_mmpp_duty_cycle () =
  let b = bank ~seed:3 ~p_on_to_off:0.1 ~p_off_to_on:0.3 ~rate:1.0 () in
  Alcotest.(check (float 1e-9)) "stationary on-probability" 0.75
    (Source_bank.duty_cycle b);
  Alcotest.(check (float 1e-9)) "mean rate" 0.75 (Source_bank.mean_rate b);
  (* Empirical duty cycle over a long run. *)
  let on = ref 0 in
  let slots = 50_000 in
  for _ = 1 to slots do
    ignore (step b);
    if Source_bank.is_on b 0 then incr on
  done;
  let freq = float_of_int !on /. float_of_int slots in
  Alcotest.(check bool) "empirical duty cycle" true (abs_float (freq -. 0.75) < 0.02)

let test_mmpp_validation () =
  (match bank ~seed:4 ~p_on_to_off:1.5 ~p_off_to_on:0.1 ~rate:1.0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bad probability accepted");
  (match bank ~seed:4 ~p_on_to_off:Float.nan ~p_off_to_on:0.1 ~rate:1.0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "NaN probability accepted");
  match bank ~seed:4 ~p_on_to_off:0.1 ~p_off_to_on:0.1 ~rate:(-1.0) () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative rate accepted"

(* --- Labels --- *)

(* The first [n] packets of an always-on source labelled by [label]. *)
let draws ~seed label n =
  let b = bank ~seed ~label ~p_on_to_off:0.0 ~p_off_to_on:1.0 ~rate:4.0 () in
  let rec go acc =
    if List.length acc >= n then List.filteri (fun i _ -> i < n) acc
    else go (step b @ acc)
  in
  go []

let test_uniform_port_label () =
  let seen = Array.make 4 false in
  List.iter
    (fun (a : Arrival.t) ->
      Alcotest.(check int) "unit value" 1 a.value;
      seen.(a.dest) <- true)
    (draws ~seed:5 (Label.uniform_port ~n:4) 500);
  Alcotest.(check bool) "all ports seen" true (Array.for_all Fun.id seen)

let test_value_equals_port_label () =
  List.iter
    (fun (a : Arrival.t) ->
      Alcotest.(check int) "value is port + 1" (a.dest + 1) a.value)
    (draws ~seed:6 (Label.value_equals_port ~n:5) 200)

let test_uniform_port_and_value_label () =
  List.iter
    (fun (a : Arrival.t) ->
      if a.dest < 0 || a.dest >= 3 then Alcotest.fail "bad dest";
      if a.value < 1 || a.value > 6 then Alcotest.fail "bad value")
    (draws ~seed:7 (Label.uniform_port_and_value ~n:3 ~k:6) 200)

let test_weighted_port_label () =
  let counts = Array.make 3 0 in
  List.iter
    (fun (a : Arrival.t) -> counts.(a.dest) <- counts.(a.dest) + 1)
    (draws ~seed:8 (Label.weighted_port ~weights:[| 0.0; 1.0; 3.0 |] ()) 8_000);
  Alcotest.(check int) "zero-weight port unused" 0 counts.(0);
  let frac = float_of_int counts.(2) /. 8000.0 in
  Alcotest.(check bool) "weights respected" true (abs_float (frac -. 0.75) < 0.03);
  match Label.weighted_port ~weights:[| 0.0 |] () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "all-zero weights accepted"

(* --- Workload --- *)

let test_workload_of_slots () =
  let a0 = Arrival.make ~dest:0 () and a1 = Arrival.make ~dest:1 () in
  let w = Workload.of_slots [| [ a0 ]; []; [ a1; a0 ] |] in
  Alcotest.(check int) "slot 0 size" 1 (List.length (Slot_list.next w));
  Alcotest.(check int) "slot 1 empty" 0 (List.length (Slot_list.next w));
  Alcotest.(check int) "slot 2 size" 2 (List.length (Slot_list.next w));
  Alcotest.(check int) "beyond end" 0 (List.length (Slot_list.next w))

let test_workload_of_fun () =
  let w =
    Workload.of_fun (fun slot -> List.init slot (fun _ -> Arrival.make ~dest:0 ()))
  in
  Alcotest.(check int) "slot 0" 0 (List.length (Slot_list.next w));
  Alcotest.(check int) "slot 1" 1 (List.length (Slot_list.next w));
  Alcotest.(check int) "slot 2" 2 (List.length (Slot_list.next w))

let test_workload_of_sources_deterministic () =
  let build seed =
    Scenario.workload
      ~mmpp:{ Scenario.sources = 10; p_on_to_off = 0.2; p_off_to_on = 0.2 }
      ~label:(Label.uniform_port ~n:3) ~emission:(Poisson 0.5) ~seed
  in
  let w1 = build 99 and w2 = build 99 in
  for _ = 1 to 200 do
    let a1 = Slot_list.next w1 and a2 = Slot_list.next w2 in
    if not (List.equal Arrival.equal a1 a2) then
      Alcotest.fail "same seed produced different traffic"
  done

(* --- Trace --- *)

let slot_of trace i =
  let acc = ref [] in
  Trace.Compact.iter_slot trace i ~f:(fun ~dest ~value ->
      acc := { Arrival.dest; value } :: !acc);
  List.rev !acc

let test_trace_record_replay () =
  let w =
    Workload.of_fun (fun slot ->
        if slot mod 2 = 0 then [ Arrival.make ~dest:(slot mod 3) ~value:2 () ]
        else [])
  in
  let trace = Trace.Compact.of_workload w ~slots:10 in
  Alcotest.(check int) "slots" 10 (Trace.Compact.slots trace);
  Alcotest.(check int) "arrivals" 5 (Trace.Compact.arrivals trace);
  let replay = Trace.Compact.replay trace in
  for slot = 0 to 9 do
    if not (List.equal Arrival.equal (slot_of trace slot) (Slot_list.next replay))
    then Alcotest.fail "replay diverged"
  done;
  Alcotest.(check int) "replay beyond end" 0 (List.length (Slot_list.next replay))

(* [f path] with [contents] written to a temporary file. *)
let with_file contents f =
  let path = Filename.temp_file "smbm_trace" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc contents;
      close_out oc;
      f path)

let load path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> Trace.Compact.load ic)

let test_trace_save_load_roundtrip () =
  let trace =
    Trace.Compact.of_slots
      [|
        [ Arrival.make ~dest:0 ~value:3 (); Arrival.make ~dest:2 () ];
        [];
        [ Arrival.make ~dest:1 ~value:7 () ];
      |]
  in
  let path = Filename.temp_file "smbm_trace" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      Trace.Compact.save trace ~line:(fun l ->
          output_string oc l;
          output_char oc '\n');
      close_out oc;
      let ic = open_in_bin path in
      let bytes = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Alcotest.(check string) "saved bytes" "0:3 2:1\n\n1:7\n" bytes;
      match load path with
      | Ok loaded ->
        Alcotest.(check bool) "roundtrip" true (Trace.Compact.equal trace loaded)
      | Error (line, reason) -> Alcotest.failf "line %d: %s" line reason)

(* Each class of bad file is a typed [Error] naming its line. *)
let expect_rejected ~line contents =
  with_file contents (fun path ->
      match load path with
      | Error (l, _) -> Alcotest.(check int) "line" line l
      | Ok _ -> Alcotest.failf "accepted %S" contents)

let test_trace_load_rejects_garbage () = expect_rejected ~line:1 "0:1 junk\n"
let test_trace_load_rejects_value () = expect_rejected ~line:2 "0:1\n0:0\n"
let test_trace_load_rejects_dest () = expect_rejected ~line:3 "\n\n-3:1\n"
let test_trace_load_rejects_empty () = expect_rejected ~line:1 ""

(* --- Scenario --- *)

let test_scenario_rate_calibration () =
  (* A proc workload built for a given load must deliver approximately
     load * n * C / mean_work packets per slot in the long run. *)
  let config = Proc_config.contiguous ~k:8 ~buffer:32 () in
  let w =
    Scenario.proc_workload
      ~mmpp:{ Scenario.default_mmpp with sources = 100 }
      ~config ~load:2.0 ~seed:7 ()
  in
  let expected = 2.0 *. 8.0 /. 4.5 in
  (match Workload.mean_rate w with
  | Some r -> Alcotest.(check (float 1e-6)) "declared mean rate" expected r
  | None -> Alcotest.fail "source workload must know its rate");
  let slots = 30_000 in
  let total = ref 0 in
  for _ = 1 to slots do
    total := !total + List.length (Slot_list.next w)
  done;
  let mean = float_of_int !total /. float_of_int slots in
  Alcotest.(check bool) "empirical rate near declared" true
    (abs_float (mean -. expected) /. expected < 0.1)

let test_scenario_value_port_labels () =
  let config = Value_config.make ~ports:6 ~max_value:6 ~buffer:24 () in
  let w = Scenario.value_port_workload ~config ~load:1.0 ~seed:3 () in
  for _ = 1 to 500 do
    List.iter
      (fun (a : Arrival.t) ->
        if a.value <> a.dest + 1 then Alcotest.fail "value must equal port + 1")
      (Slot_list.next w)
  done

let test_scenario_value_port_requires_n_le_k () =
  let config = Value_config.make ~ports:6 ~max_value:3 ~buffer:24 () in
  match Scenario.value_port_workload ~config ~load:1.0 ~seed:3 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "n > k accepted"

let test_port_values () =
  let config = Value_config.make ~ports:4 ~max_value:4 ~buffer:8 () in
  Alcotest.(check (list int)) "identity assignment" [ 1; 2; 3; 4 ]
    (Array.to_list (Scenario.port_values config))

let suite =
  [
    Alcotest.test_case "MMPP off emits nothing" `Quick test_mmpp_off_emits_nothing;
    Alcotest.test_case "MMPP always-on rate" `Quick test_mmpp_always_on_rate;
    Alcotest.test_case "MMPP duty cycle" `Quick test_mmpp_duty_cycle;
    Alcotest.test_case "MMPP validation" `Quick test_mmpp_validation;
    Alcotest.test_case "uniform port label" `Quick test_uniform_port_label;
    Alcotest.test_case "value-equals-port label" `Quick
      test_value_equals_port_label;
    Alcotest.test_case "uniform port and value label" `Quick
      test_uniform_port_and_value_label;
    Alcotest.test_case "weighted port label" `Quick test_weighted_port_label;
    Alcotest.test_case "workload of slots" `Quick test_workload_of_slots;
    Alcotest.test_case "workload of function" `Quick test_workload_of_fun;
    Alcotest.test_case "source workload determinism" `Quick
      test_workload_of_sources_deterministic;
    Alcotest.test_case "trace record and replay" `Quick test_trace_record_replay;
    Alcotest.test_case "trace save/load roundtrip" `Quick
      test_trace_save_load_roundtrip;
    Alcotest.test_case "trace load rejects garbage" `Quick
      test_trace_load_rejects_garbage;
    Alcotest.test_case "trace load rejects value < 1" `Quick
      test_trace_load_rejects_value;
    Alcotest.test_case "trace load rejects negative dest" `Quick
      test_trace_load_rejects_dest;
    Alcotest.test_case "trace load rejects empty file" `Quick
      test_trace_load_rejects_empty;
    Alcotest.test_case "scenario rate calibration" `Quick
      test_scenario_rate_calibration;
    Alcotest.test_case "value-port scenario labels" `Quick
      test_scenario_value_port_labels;
    Alcotest.test_case "value-port scenario validation" `Quick
      test_scenario_value_port_requires_n_le_k;
    Alcotest.test_case "port values" `Quick test_port_values;
  ]
