(* The engine slot loop's allocation budget: every registry policy on its
   engine, and both OPT references, step a fixed recorded trace without
   allocating.  Each instance is warmed on the trace's first slots (index
   trees built, lazily grown tables filled), then measured slot by slot over
   the rest, once untraced and once with a wrapping [Flight] ring attached.
   A boxed float, an option or a decision block on the per-packet or
   per-slot path shows as one or more words per slot, far above the
   budget. *)

open Smbm_core
open Smbm_sim
module Compact = Smbm_traffic.Trace.Compact
module Scenario = Smbm_traffic.Scenario
module Workload = Smbm_traffic.Workload
module Flight = Smbm_obs.Flight

let warm_slots = 500
let measured_slots = 2_000
let budget = 0.1

let mmpp = { Scenario.default_mmpp with sources = 60 }
let proc = Proc_config.contiguous ~k:8 ~buffer:32 ()
let hybrid = Proc_config.contiguous ~k:8 ~max_value:8 ~buffer:32 ()
let value = Value_config.make ~ports:8 ~max_value:8 ~buffer:32 ()
let record w = Compact.of_workload w ~slots:(warm_slots + measured_slots)

(* Overloaded (load 2) so every admission branch runs: accepts, drops and
   push-outs on a full buffer. *)
let proc_trace =
  lazy (record (Scenario.proc_workload ~mmpp ~config:proc ~load:2.0 ~seed:3 ()))

let value_trace =
  lazy
    (record
       (Scenario.value_uniform_workload ~mmpp ~config:value ~load:2.0 ~seed:5
          ()))

let port_trace =
  lazy
    (record
       (Scenario.value_port_workload ~mmpp ~config:value ~load:2.0 ~seed:7 ()))

let words_per_slot (inst : Instance.t) trace =
  let workload = Compact.replay trace in
  let batch = Arrival_batch.create () in
  let step () =
    Workload.next_into workload batch;
    Instance.step_batch inst ~batch
  in
  for _ = 1 to warm_slots do
    step ()
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to measured_slots do
    step ()
  done;
  let w1 = Gc.minor_words () in
  inst.check ();
  (w1 -. w0) /. float_of_int measured_slots

type case = {
  name : string;
  make : ?events:Flight.t -> unit -> Instance.t;
  trace : Compact.t Lazy.t;
}

let cases () =
  let proc_cases =
    List.map
      (fun (p : Proc_switch.t Policy.t) ->
        {
          name = "proc " ^ p.name;
          make = (fun ?events () -> Engine.Proc.instance ?events proc p);
          trace = proc_trace;
        })
      (Policies.proc_extended proc)
  and hybrid_cases =
    List.map
      (fun (p : Proc_switch.t Policy.t) ->
        {
          name = "hybrid " ^ p.name;
          make = (fun ?events () -> Engine.Proc.instance ?events hybrid p);
          trace = value_trace;
        })
      (Policies.hybrid hybrid)
  and value_cases tag policies trace =
    List.map
      (fun (p : Value_switch.t Policy.t) ->
        {
          name = tag ^ " " ^ p.name;
          make = (fun ?events () -> Engine.Value.instance ?events value p);
          trace;
        })
      policies
  in
  proc_cases @ hybrid_cases
  @ value_cases "value-uniform" (Policies.value_uniform value) value_trace
  @ value_cases "value-port"
      (Policies.value_port ~port_value:(Scenario.port_values value) value)
      port_trace
  @ [
      {
        name = "OPT proc";
        make = (fun ?events () -> Opt_ref.proc_instance ?events proc);
        trace = proc_trace;
      };
      {
        name = "OPT value";
        make = (fun ?events () -> Opt_ref.value_instance ?events value);
        trace = value_trace;
      };
    ]

(* Policies can be stateful (RAND's generator), so each arm builds its own
   registry lists. *)
let check_all ~traced () =
  let over =
    List.filter_map
      (fun c ->
        let events =
          if traced then Some (Flight.create ~cap:4096 ()) else None
        in
        let w = words_per_slot (c.make ?events ()) (Lazy.force c.trace) in
        if w > budget then Some (Printf.sprintf "%s: %.2f" c.name w) else None)
      (cases ())
  in
  Alcotest.(check (list string))
    (Printf.sprintf "instances over %.1f minor words/slot" budget)
    [] over

let suite =
  [
    Alcotest.test_case "slot loop allocation-free" `Quick
      (check_all ~traced:false);
    Alcotest.test_case "slot loop allocation-free with a ring" `Quick
      (check_all ~traced:true);
  ]
