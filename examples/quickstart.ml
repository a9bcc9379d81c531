(* Quickstart: build a shared-memory switch, feed it bursty traffic, and
   compare the paper's LWD policy against LQD and the single-priority-queue
   OPT reference.

   Run with: dune exec examples/quickstart.exe *)

open Smbm_core
open Smbm_traffic
open Smbm_sim

let () =
  (* A switch with 8 output ports requiring 1..8 processing cycles, a shared
     buffer of 32 packets, one core per queue. *)
  let config = Proc_config.contiguous ~k:8 ~buffer:32 () in

  (* Bursty MMPP traffic at twice the switch capacity. *)
  let workload =
    Scenario.proc_workload
      ~mmpp:{ Scenario.default_mmpp with sources = 100 }
      ~config ~load:2.0 ~seed:7 ()
  in

  (* Three instances stepped in lockstep over the same arrivals. *)
  let lwd = Engine.Proc.instance config (P_lwd.make config) in
  let lqd = Engine.Proc.instance config (P_lqd.make config) in
  let opt = Opt_ref.proc_instance config in
  Experiment.run
    ~params:{ Experiment.slots = 50_000; flush_every = Some 5_000; check_every = None }
    ~workload [ lwd; lqd; opt ];

  List.iter
    (fun (i : Instance.t) ->
      Printf.printf "%-4s transmitted %d packets (dropped %d, pushed out %d)\n"
        i.name (Metrics.transmitted i.metrics) (Metrics.dropped i.metrics)
        (Metrics.pushed_out i.metrics))
    [ lwd; lqd; opt ];

  Printf.printf "\nempirical competitive ratios (lower is better):\n";
  List.iter
    (fun (name, r) -> Printf.printf "  %-4s %.3f\n" name r)
    (Experiment.ratios ~objective:`Packets ~opt ~algs:[ lwd; lqd ]);
  print_endline "\nLWD is the paper's 2-competitive policy (Theorem 7)."
