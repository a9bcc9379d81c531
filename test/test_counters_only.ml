(* Counters-only instances against instances that record distributions.

   A sweep ratio point builds its instances counters-only: no latency
   sample or port tally per packet, no occupancy sample per slot.  That
   must change nothing the point reports.  For every model row (proc,
   value-uniform, value-port and the hybrid work + value configuration on
   the processing engine), every policy and the OPT reference are built
   both ways and run over the same seeded traffic with flushouts, once
   untraced and once with a flight ring attached: counters, ratios and the
   recorded event lists must be identical, and a counters-only instance
   must refuse every distribution read rather than report an empty one. *)

open Smbm_core
open Smbm_sim
module Compact = Smbm_traffic.Trace.Compact
module Scenario = Smbm_traffic.Scenario
module Flight = Smbm_obs.Flight

let slots = 1_500
let params = { Experiment.slots; flush_every = Some 400; check_every = Some 100 }
let mmpp = { Scenario.default_mmpp with sources = 30 }
let proc = Proc_config.contiguous ~k:6 ~buffer:24 ()
let hybrid = Proc_config.contiguous ~k:6 ~max_value:6 ~buffer:24 ()
let value = Value_config.make ~ports:6 ~max_value:6 ~buffer:24 ()

(* Overloaded traffic, so accepts, drops and push-outs all run.  The hybrid
   row replays value-labelled traffic: the processing workload carries
   value 1 only. *)
let value_traffic =
  lazy
    (Compact.of_workload
       (Scenario.value_uniform_workload ~mmpp ~config:value ~load:2.0 ~seed:9
          ())
       ~slots)

let rows =
  [
    ( "proc",
      Model.Proc proc,
      lazy
        (Compact.of_workload
           (Scenario.proc_workload ~mmpp ~config:proc ~load:2.0 ~seed:7 ())
           ~slots) );
    ("value_uniform", Model.Value_uniform value, value_traffic);
    ( "value_port",
      Model.Value_port value,
      lazy
        (Compact.of_workload
           (Scenario.value_port_workload ~mmpp ~config:value ~load:2.0 ~seed:8
              ())
           ~slots) );
    ("hybrid", Model.Proc hybrid, value_traffic);
  ]

let run ?events ~distributions model trace =
  let instances = Model.instances ?events ~distributions model in
  Experiment.run ~params ~workload:(Compact.replay trace) instances;
  instances

let counters (i : Instance.t) =
  let m = i.metrics in
  ( i.name,
    [
      Metrics.arrivals m;
      Metrics.accepted m;
      Metrics.dropped m;
      Metrics.pushed_out m;
      Metrics.transmitted m;
      Metrics.transmitted_value m;
      Metrics.flushed m;
    ] )

let ratios model = function
  | opt :: algs -> Experiment.ratios ~objective:(Model.objective model) ~opt ~algs
  | [] -> []

let raises what f =
  match f () with
  | _ -> Alcotest.failf "%s returned on a counters-only instance" what
  | exception Invalid_argument _ -> ()

let check_row (name, model, trace) () =
  let trace = Lazy.force trace in
  let full = run ~distributions:true model trace
  and bare = run ~distributions:false model trace in
  Alcotest.(check (list (pair string (list int))))
    (name ^ " counters") (List.map counters full) (List.map counters bare);
  Alcotest.(check (list (pair string (float 0.0))))
    (name ^ " ratios") (ratios model full) (ratios model bare);
  let traced distributions =
    let ring = Flight.create ~cap:(1 lsl 20) () in
    let instances = run ~events:ring ~distributions model trace in
    Alcotest.(check int) (name ^ " ring kept every event") 0 (Flight.dropped ring);
    (List.map counters instances, Flight.events ring)
  in
  let full_counters, full_events = traced true
  and bare_counters, bare_events = traced false in
  Alcotest.(check (list (pair string (list int))))
    (name ^ " traced counters") full_counters bare_counters;
  Alcotest.(check int)
    (name ^ " event count") (List.length full_events) (List.length bare_events);
  Alcotest.(check bool)
    (name ^ " identical event lists") true
    (full_events = bare_events);
  List.iter
    (fun (i : Instance.t) ->
      Alcotest.(check bool) (i.name ^ " has no ports") true (i.ports = None);
      raises "latency_stats" (fun () -> Metrics.latency_stats i.metrics);
      raises "latency_hist" (fun () -> Metrics.latency_hist i.metrics);
      raises "occupancy_stats" (fun () -> Metrics.occupancy_stats i.metrics))
    bare

let contains s sub =
  let n = String.length sub in
  let rec from i =
    i + n <= String.length s && (String.sub s i n = sub || from (i + 1))
  in
  from 0

(* [Sweep.details] over a counters-only list must name the instance it
   cannot read, never report it perfectly fair; over the distributions list
   it reads every policy. *)
let check_details () =
  let _, model, trace = List.hd rows in
  let trace = Lazy.force trace in
  let full = run ~distributions:true model trace in
  Alcotest.(check int) "a row per policy"
    (List.length full - 1)
    (List.length (Sweep.details Sweep.Proc full));
  match Sweep.details Sweep.Proc (run ~distributions:false model trace) with
  | _ -> Alcotest.fail "details read a counters-only instance"
  | exception Invalid_argument msg ->
    let first = (List.nth full 1).Instance.name in
    Alcotest.(check bool)
      (Printf.sprintf "%S names %s" msg first)
      true (contains msg first)

let suite =
  List.map
    (fun ((name, _, _) as row) ->
      Alcotest.test_case (name ^ " counters-only = with distributions") `Quick
        (check_row row))
    rows
  @ [ Alcotest.test_case "details refuse a counters-only instance" `Quick
        check_details ]
