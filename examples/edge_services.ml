(* The paper's Fig. 1 motivation: a network-edge box running three services
   with very different per-packet costs -

     firewall filtering   ~  1 cycle per packet
     SSL termination      ~  6 cycles per packet
     IPsec encryption     ~ 20 cycles per packet

   Each service gets its own output queue and core, all drawing on one
   shared buffer (the bottom architecture of Fig. 1).  The example compares
   the buffer-management policies on the two fronts the paper cares about:
   total throughput, and starvation of individual services.

   Run with: dune exec examples/edge_services.exe *)

open Smbm_core
open Smbm_traffic
open Smbm_sim
open Smbm_report

let service_names = [| "firewall"; "ssl"; "ipsec" |]
let works = [| 1; 6; 20 |]
let weights = [| 0.70; 0.20; 0.10 |]
let buffer = 48
let slots = 60_000

let make_workload () =
  let mmpp = { Scenario.default_mmpp with sources = 200 } in
  let label = Label.weighted_port ~weights () in
  (* Offered work ~ 1.8x the three-core capacity. *)
  let mean_work =
    Array.to_seq weights
    |> Seq.zip (Array.to_seq works)
    |> Seq.fold_left (fun acc (w, p) -> acc +. (p *. float_of_int w)) 0.0
  in
  let aggregate = 1.8 *. 3.0 /. mean_work in
  let rate =
    aggregate /. (float_of_int mmpp.sources *. Scenario.duty_cycle mmpp)
  in
  Scenario.workload ~mmpp ~label ~emission:(Poisson rate) ~seed:11

let () =
  let config = Proc_config.make ~works ~buffer () in
  let policies = Policies.proc config in

  (* All instances run in lockstep on identical traffic; each engine keeps
     its per-service transmission tallies in [ports]. *)
  let instances =
    Opt_ref.proc_instance config
    :: List.map (Engine.Proc.instance config) policies
  in
  Experiment.run
    ~params:{ Experiment.slots = slots; flush_every = Some 6_000; check_every = None }
    ~workload:(make_workload ()) instances;

  match instances with
  | opt :: algs ->
    Printf.printf
      "Edge services (%s requiring %s cycles), shared buffer of %d packets:\n\n"
      (String.concat " / " (Array.to_list service_names))
      (String.concat " / " (Array.to_list (Array.map string_of_int works)))
      buffer;
    let rows =
      List.map
        (fun (i : Instance.t) ->
          let m = i.metrics in
          let ports = Option.get i.ports in
          [
            i.name;
            string_of_int (Metrics.transmitted m);
            Table.float_cell (Experiment.ratio ~objective:`Packets ~opt ~alg:i);
            string_of_int (Port_stats.transmitted ports 0);
            string_of_int (Port_stats.transmitted ports 1);
            string_of_int (Port_stats.transmitted ports 2);
            Table.float_cell ~digits:1
              (Smbm_prelude.Running_stats.mean (Metrics.latency_stats m));
          ])
        algs
    in
    print_string
      (Table.render
         ~headers:
           [ "policy"; "total"; "ratio"; "firewall"; "ssl"; "ipsec"; "latency" ]
         ~rows ());
    print_endline
      "\nBPD starves the IPsec service outright (it always evicts the most\n\
       expensive queue); LWD bounds every queue's share by its total work,\n\
       keeping all three services alive at the best overall throughput.";
    print_endline
      "Because each core runs a single service out of its own FIFO queue,\n\
       no priority-queue processing order is needed (Fig. 1, bottom)."
  | [] -> ()
