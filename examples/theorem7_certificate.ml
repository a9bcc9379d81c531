(* Watching Theorem 7 hold (and fail to hold for LQD).

   The paper's main result says LWD never falls behind the clairvoyant
   optimum by more than a factor of two — and since every prefix of a trace
   is a trace, the bound holds cumulatively at EVERY time slot against ANY
   opponent algorithm.  This example runs that certificate live:

   1. LWD against every other policy on bursty MMPP traffic: the opponents
      must stay inside the 2x envelope at all 30 000 slots.
   2. LWD on its own worst known input (the Theorem 6 construction): the
      scripted OPT reaches ~4/3, still inside the envelope.
   3. Negative control: LQD on the Theorem 4 construction sails past 2x -
      LQD is provably NOT 2-competitive under heterogeneous processing.

   Run with: dune exec examples/theorem7_certificate.exe *)

open Smbm_core
open Smbm_traffic
open Smbm_sim
open Smbm_report

let () =
  let config = Proc_config.contiguous ~k:16 ~buffer:64 () in
  print_endline
    "1. LWD vs every policy on bursty traffic (30 000 slots, 2x prefix\n\
    \   envelope checked every slot):\n";
  let rows =
    List.map
      (fun (opponent : Proc_switch.t Policy.t) ->
        let workload =
          Scenario.proc_workload
            ~mmpp:{ Scenario.default_mmpp with sources = 100 }
            ~config ~load:2.5 ~seed:3 ()
        in
        let o =
          Competitive_check.certify_lwd ~config ~workload ~slots:30_000
            ~flush_every:3_000 ~opponent ()
        in
        [
          opponent.name;
          string_of_int o.Competitive_check.violations;
          Table.float_cell o.Competitive_check.max_prefix_ratio;
        ])
      (Policies.proc_extended config)
  in
  print_string
    (Table.render
       ~headers:[ "opponent"; "violations"; "max prefix ratio" ]
       ~rows ());

  print_endline
    "\n2. LWD on its own lower-bound construction (Theorem 6, B = 1200):";
  let m = Smbm_lowerbounds.Lb_lwd.measure ~buffer:1200 ~episodes:5 () in
  Printf.printf
    "   scripted OPT / LWD = %.3f  (theory: 4/3 - 6/B = %.3f; envelope: 2)\n"
    m.Smbm_lowerbounds.Runner.ratio
    (Smbm_lowerbounds.Lb_lwd.finite_bound ~buffer:1200);

  print_endline
    "\n3. Negative control - LQD on the Theorem 4 construction (k = 64):";
  let m = Smbm_lowerbounds.Lb_lqd.measure ~k:64 ~buffer:1024 ~episodes:5 () in
  Printf.printf
    "   scripted OPT / LQD = %.3f  - far outside the 2x envelope, matching\n\
    \   Theorem 4's sqrt(k) lower bound (finite-size prediction %.3f).\n"
    m.Smbm_lowerbounds.Runner.ratio
    (Smbm_lowerbounds.Lb_lqd.finite_bound ~k:64 ~buffer:1024)
