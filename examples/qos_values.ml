(* Value model (Section IV): QoS classes with intrinsic packet values.

   A provider runs bronze / silver / gold / platinum service classes, one
   output port per class, values 1 / 3 / 6 / 10, all sharing one buffer.
   The example compares the value-model policies in two traffic regimes:

   - a balanced regime, where every class receives the same packet rate;
   - a cheap-flood regime, where bronze traffic floods the switch - the
     "distributions that prioritize certain values at specific queues" for
     which the paper says MRD's advantage over LQD grows.

   Run with: dune exec examples/qos_values.exe *)

open Smbm_core
open Smbm_traffic
open Smbm_sim
open Smbm_report

let class_names = [| "bronze"; "silver"; "gold"; "platinum" |]
let class_values = [| 1; 3; 6; 10 |]
let buffer = 32
let slots = 60_000

let make_workload ~weights ~seed =
  let mmpp = { Scenario.default_mmpp with sources = 200 } in
  let label =
    Label.weighted_port ~weights ~value_of_port:(fun i -> class_values.(i)) ()
  in
  (* Packets per slot ~ 1.6x the four-port transmission capacity. *)
  let aggregate = 1.6 *. 4.0 in
  let rate =
    aggregate /. (float_of_int mmpp.sources *. Scenario.duty_cycle mmpp)
  in
  Scenario.workload ~mmpp ~label ~emission:(Poisson rate) ~seed

let run_regime ~title ~weights =
  let config =
    Value_config.make ~ports:4
      ~max_value:(Array.fold_left max 1 class_values)
      ~buffer ()
  in
  let policies = Policies.value_port ~port_value:class_values config in
  let instances =
    Opt_ref.value_instance config
    :: List.map (Engine.Value.instance config) policies
  in
  Experiment.run
    ~params:{ Experiment.slots = slots; flush_every = Some 6_000; check_every = None }
    ~workload:(make_workload ~weights ~seed:23) instances;
  match instances with
  | opt :: algs ->
    Printf.printf "%s\n\n" title;
    let rows =
      List.map
        (fun (i : Instance.t) ->
          let ports = Option.get i.ports in
          [
            i.name;
            string_of_int (Metrics.transmitted_value i.metrics);
            Table.float_cell (Experiment.ratio ~objective:`Value ~opt ~alg:i);
          ]
          @ List.init 4 (fun c -> string_of_int (Port_stats.transmitted ports c)))
        algs
    in
    print_string
      (Table.render
         ~headers:
           ("policy" :: "value" :: "ratio" :: Array.to_list class_names)
         ~rows ());
    print_newline ()
  | [] -> ()

let () =
  run_regime
    ~title:"Balanced classes (equal packet rates, values 1/3/6/10):"
    ~weights:[| 1.0; 1.0; 1.0; 1.0 |];
  run_regime
    ~title:"Bronze flood (cheap traffic dominates 8:2:1:1):"
    ~weights:[| 8.0; 2.0; 1.0; 1.0 |];
  print_endline
    "MVD maximizes admitted value but deactivates the cheap ports entirely;\n\
     LQD is value-blind; MRD balances both, and its edge over LQD grows when\n\
     cheap traffic floods the buffer (the paper's open conjecture is that\n\
     MRD is constant-competitive)."
