(* The combined model: packets that are BOTH expensive to process and
   unequally valuable — the direction the paper's conclusion points at.

   Scenario: four services whose processing costs are 1/2/4/8 cycles, and
   whose traffic value runs AGAINST the cost (the heavy ports carry the
   cheap bulk traffic; think: expensive DPI applied to low-priority flows).
   Which eviction rule should the shared buffer run?

   The combined model is a processing configuration whose packets carry
   values up to [max_value] > 1; the engine and switch are the processing
   model's own.

   Run with: dune exec examples/hybrid_switch.exe *)

open Smbm_core
open Smbm_traffic
open Smbm_report

let works = [| 1; 2; 4; 8 |]
let buffer = 24

let trace_at ~lambda ~slots =
  let module R = Smbm_prelude.Rng in
  let rng = R.create ~seed:42 in
  Array.init slots (fun _ ->
      List.init (R.poisson rng ~lambda) (fun _ ->
          let dest = R.int rng 4 in
          let value = 1 + R.int rng (9 - works.(dest)) in
          Arrival.make ~dest ~value ()))

let () =
  let cfg = Proc_config.make ~works ~buffer ~max_value:8 () in
  let policies = Policies.hybrid cfg in
  let run trace (p : Proc_switch.t Policy.t) =
    let inst = Smbm_sim.Engine.Proc.instance cfg p in
    Smbm_sim.Experiment.run
      ~params:
        {
          Smbm_sim.Experiment.slots = Array.length trace + 100;
          flush_every = None;
          check_every = None;
        }
      ~workload:
        (Workload.of_fun (fun i ->
             if i < Array.length trace then trace.(i) else []))
      [ inst ];
    let m = inst.Smbm_sim.Instance.metrics in
    ((Smbm_sim.Metrics.transmitted_value m), (Smbm_sim.Metrics.transmitted m))
  in
  print_endline
    "Combined work + value model: works 1/2/4/8, value anti-correlated\n\
     with work, shared buffer of 24.\n";
  List.iter
    (fun lambda ->
      let trace = trace_at ~lambda ~slots:6_000 in
      Printf.printf "arrival rate %.0f packets/slot:\n" lambda;
      let rows =
        List.map
          (fun (p : Proc_switch.t Policy.t) ->
            let value, packets = run trace p in
            [ p.name; string_of_int value; string_of_int packets ])
          policies
      in
      print_string (Table.render ~headers:[ "policy"; "value"; "packets" ] ~rows ());
      print_newline ())
    [ 2.0; 8.0 ];
  print_endline
    "At moderate load the paper's value-blind LWD is already excellent; at\n\
     extreme load the value view (MVD) takes over, and the naive\n\
     work-per-value aggregate (WVD) collapses by monopolizing the buffer\n\
     for the lightest port.  Pricing BOTH characteristics at once - the\n\
     open design problem this library leaves where the paper left its MRD\n\
     conjecture."
