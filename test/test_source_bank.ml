open Smbm_prelude
open Smbm_core
open Smbm_traffic

(* --- lockstep against the per-source oracle --- *)

type label_spec =
  | Uniform of int
  | Uniform_value of int * int
  | Value_port of int
  | Fixed of int * int
  | Weighted of float array * int array

let bank_label = function
  | Uniform n -> Label.uniform_port ~n
  | Uniform_value (n, k) -> Label.uniform_port_and_value ~n ~k
  | Value_port n -> Label.value_equals_port ~n
  | Fixed (dest, value) -> Label.fixed_port ~dest ~value ()
  | Weighted (weights, values) ->
    Label.weighted_port ~weights ~value_of_port:(Array.get values) ()

let oracle_label = function
  | Uniform n -> Source_oracle.uniform_port ~n
  | Uniform_value (n, k) -> Source_oracle.uniform_port_and_value ~n ~k
  | Value_port n -> Source_oracle.value_equals_port ~n
  | Fixed (dest, value) -> Source_oracle.fixed_port ~dest ~value
  | Weighted (weights, values) ->
    Source_oracle.weighted_port ~weights ~value_of_port:(Array.get values)

type case = {
  sources : int;
  p_on_to_off : float;
  p_off_to_on : float;
  emission : Source_bank.emission;
  label : label_spec;
  seed : int;
  slots : int;
}

let show_emission = function
  | Source_bank.Poisson r -> Printf.sprintf "Poisson %h" r
  | Heavy_tail { alpha; max_batch; mean } ->
    Printf.sprintf "Heavy_tail {alpha=%h; max_batch=%d; mean=%h}" alpha max_batch
      mean

let show_label = function
  | Uniform n -> Printf.sprintf "Uniform %d" n
  | Uniform_value (n, k) -> Printf.sprintf "Uniform_value (%d, %d)" n k
  | Value_port n -> Printf.sprintf "Value_port %d" n
  | Fixed (d, v) -> Printf.sprintf "Fixed (%d, %d)" d v
  | Weighted (w, v) ->
    Printf.sprintf "Weighted ([%s], [%s])"
      (String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%h") w)))
      (String.concat "; " (Array.to_list (Array.map string_of_int v)))

let show c =
  Printf.sprintf "{sources=%d; p_on_to_off=%h; p_off_to_on=%h; %s; %s; seed=%d; slots=%d}"
    c.sources c.p_on_to_off c.p_off_to_on (show_emission c.emission)
    (show_label c.label) c.seed c.slots

let gen_case =
  let open QCheck2.Gen in
  (* The extremes matter: 0 and 1 skip the transition draw.  So do the
     probabilities where an integer threshold could be off by one: a
     multiple of 2^-53 and its neighbours, and those nearest 0 and 1. *)
  let edge =
    map2
      (fun m nudge -> nudge (float_of_int m /. 9007199254740992.0))
      (oneof [ int_range 1 1000; int_range 1 ((1 lsl 53) - 1) ])
      (oneofl [ Fun.id; Float.pred; Float.succ ])
  in
  let prob =
    oneof
      [
        pure 0.0;
        pure 1.0;
        float_bound_inclusive 1.0;
        edge;
        oneofl [ Float.pred 1.0; Float.succ 0.0; ldexp 1.0 (-60) ];
      ]
  in
  (* 0 skips the emission draw; >= 30 takes the normal approximation. *)
  let rate = oneof [ pure 0.0; float_bound_inclusive 5.0; float_range 30.0 60.0 ] in
  let emission =
    oneof
      [
        map (fun r -> Source_bank.Poisson r) rate;
        (* Small caps and means on both sides of the raw Pareto mean: the
           thinned and the topped-up heavy tail, including a zero top-up. *)
        map3
          (fun alpha max_batch mean -> Source_bank.Heavy_tail { alpha; max_batch; mean })
          (float_range 0.5 3.0) (int_range 1 60)
          (oneof [ pure 0.0; float_bound_inclusive 12.0; float_range 30.0 45.0 ]);
      ]
  in
  let ports = int_range 1 8 in
  let label =
    oneof
      [
        map (fun n -> Uniform n) ports;
        map2 (fun n k -> Uniform_value (n, k)) ports (int_range 1 8);
        map (fun n -> Value_port n) ports;
        map2 (fun d v -> Fixed (d, v)) (int_bound 7) (int_range 1 9);
        ( ports >>= fun n ->
          map2
            (fun weights values ->
              (* At least one positive weight. *)
              let weights = Array.of_list weights in
              weights.(n - 1) <- weights.(n - 1) +. 0.5;
              Weighted (weights, Array.of_list values))
            (list_repeat n (oneof [ pure 0.0; float_bound_inclusive 3.0 ]))
            (list_repeat n (int_range 1 20)) );
      ]
  in
  map
    (fun ((sources, p_on_to_off, p_off_to_on), (emission, label), (seed, slots)) ->
      { sources; p_on_to_off; p_off_to_on; emission; label; seed; slots })
    (triple
       (triple (int_bound 24) prob prob)
       (pair emission label)
       (pair (int_bound 1_000_000) (int_range 1 80)))

let lockstep c =
  let bank =
    Source_bank.create ~rng:(Rng.create ~seed:c.seed) ~sources:c.sources
      ~p_on_to_off:c.p_on_to_off ~p_off_to_on:c.p_off_to_on ~emission:c.emission
      ~label:(bank_label c.label)
  in
  let oracle =
    Source_oracle.sources ~rng:(Rng.create ~seed:c.seed) ~sources:c.sources
      ~p_on_to_off:c.p_on_to_off ~p_off_to_on:c.p_off_to_on ~emission:c.emission
      ~label:(oracle_label c.label)
  in
  let workload = Workload.of_bank bank in
  let batch = Arrival_batch.create ~capacity:1 () in
  let same_states () =
    List.for_all2
      (fun i s -> Source_bank.is_on bank i = Source_oracle.is_on s)
      (List.init c.sources Fun.id) oracle
  in
  let rec run slot =
    slot = c.slots
    ||
    (Workload.next_into workload batch;
     List.equal Arrival.equal (Slot_list.of_batch batch) (Source_oracle.slot oracle)
     && same_states ()
     && run (slot + 1))
  in
  same_states () && run 0

let prop_bank_matches_oracle =
  QCheck2.Test.make ~name:"bank = per-source oracle, slot by slot" ~count:300
    ~print:show gen_case lockstep

(* The paper's scale: 500 sources of the default MMPP under each Fig. 5
   labelling, at a Poisson rate offering 16 packets per slot, for 2 000
   slots. *)
let test_paper_scale_lockstep () =
  let mmpp = Scenario.default_mmpp in
  let rate = 16.0 /. (float_of_int mmpp.sources *. Scenario.duty_cycle mmpp) in
  List.iter
    (fun label ->
      let c =
        {
          sources = mmpp.sources;
          p_on_to_off = mmpp.p_on_to_off;
          p_off_to_on = mmpp.p_off_to_on;
          emission = Poisson rate;
          label;
          seed = 42;
          slots = 2_000;
        }
      in
      if not (lockstep c) then Alcotest.failf "diverged: %s" (show c))
    [ Uniform 16; Uniform_value (16, 16); Value_port 16 ]

(* The transition probabilities 0 and 1 draw nothing and leave the process
   word where it was.  Each pairing of them with each other and with two
   probabilities that draw runs at bank sizes 0 to 9 and around the
   paper's 500 sources, with [is_on] compared every slot, so a transition
   step that mishandles a degenerate threshold diverges here for certain;
   the QCheck property reaches these pairings only by chance. *)
let test_transition_grid () =
  let probabilities = [ 0.0; 1.0; 0.1; 1.0 /. 30.0 ] in
  List.iter
    (fun sources ->
      List.iteri
        (fun a p_on_to_off ->
          List.iteri
            (fun b p_off_to_on ->
              let c =
                {
                  sources;
                  p_on_to_off;
                  p_off_to_on;
                  emission = Poisson 0.5;
                  label = Uniform 4;
                  seed = (100 * sources) + (4 * a) + b;
                  slots = 40;
                }
              in
              if not (lockstep c) then Alcotest.failf "diverged: %s" (show c))
            probabilities)
        probabilities)
    (List.init 10 Fun.id @ [ 499; 500; 501 ])

let test_mean_rate () =
  let rate = 0.7 and sources = 37 in
  let bank =
    Source_bank.create ~rng:(Rng.create ~seed:1) ~sources ~p_on_to_off:0.1
      ~p_off_to_on:(1.0 /. 30.0) ~emission:(Poisson rate)
      ~label:(Label.uniform_port ~n:4)
  in
  (* The rate a list of sources reported: summed one source at a time. *)
  let per_source =
    Source_oracle.stationary_on ~p_on_to_off:0.1 ~p_off_to_on:(1.0 /. 30.0) *. rate
  in
  let expected = List.fold_left ( +. ) 0.0 (List.init sources (fun _ -> per_source)) in
  Alcotest.(check (float 0.0)) "bit-identical sum" expected (Source_bank.mean_rate bank)

(* --- allocation --- *)

let base_proc = Proc_config.contiguous ~k:16 ~buffer:64 ()
let base_value = Value_config.make ~ports:16 ~max_value:16 ~buffer:64 ()

let test_steady_state_allocation () =
  let check name workload =
    let batch = Arrival_batch.create () in
    (* Warm-up: the bank's scratch and the batch grow to the largest slot
       this seed produces (the heavy tail's reaches 1 006 packets). *)
    for _ = 1 to 5_000 do
      Workload.next_into workload batch
    done;
    let w0 = Gc.minor_words () in
    for _ = 1 to 1_000 do
      Workload.next_into workload batch
    done;
    let words = Gc.minor_words () -. w0 in
    Alcotest.(check (float 0.0)) (name ^ ": minor words over 1000 slots") 0.0 words
  in
  check "proc" (Scenario.proc_workload ~config:base_proc ~load:2.0 ~seed:42 ());
  check "value_uniform"
    (Scenario.value_uniform_workload ~config:base_value ~load:2.0 ~seed:42 ());
  check "value_port"
    (Scenario.value_port_workload ~config:base_value ~load:2.0 ~seed:42 ());
  check "heavy tail"
    (Scenario.proc_heavy_tail_workload ~config:base_proc ~load:2.0 ~seed:42 ())

(* --- input validation --- *)

let rejects what f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s accepted" what

let bad_floats = [ ("nan", Float.nan); ("inf", Float.infinity); ("-inf", Float.neg_infinity); ("-1", -1.0) ]

let test_rejects_bad_load () =
  List.iter
    (fun (name, load) ->
      rejects ("proc load " ^ name) (fun () ->
          Scenario.proc_workload ~config:base_proc ~load ~seed:1 ());
      rejects ("heavy-tail load " ^ name) (fun () ->
          Scenario.proc_heavy_tail_workload ~config:base_proc ~load ~seed:1 ());
      rejects ("value load " ^ name) (fun () ->
          Scenario.value_uniform_workload ~config:base_value ~load ~seed:1 ());
      rejects ("bank load " ^ name) (fun () ->
          Smbm_serve.Mmpp_bank.create (Smbm_sim.Model.Proc base_proc) ~load
            ~seed:1 ()))
    bad_floats

let create ?(p_on_to_off = 0.1) ?(p_off_to_on = 0.1) ?(emission = Source_bank.Poisson 1.0) () =
  Source_bank.create ~rng:(Rng.create ~seed:1) ~sources:3 ~p_on_to_off ~p_off_to_on
    ~emission ~label:(Label.uniform_port ~n:2)

let test_rejects_bad_probabilities () =
  List.iter
    (fun (name, p) ->
      rejects ("p_on_to_off " ^ name) (fun () -> create ~p_on_to_off:p ());
      rejects ("p_off_to_on " ^ name) (fun () -> create ~p_off_to_on:p ()))
    (("1.5", 1.5) :: bad_floats);
  rejects "NaN in the MMPP parameters of a preset" (fun () ->
      Scenario.proc_workload
        ~mmpp:{ Scenario.default_mmpp with p_on_to_off = Float.nan }
        ~config:base_proc ~load:1.0 ~seed:1 ())

let test_rejects_bad_emission () =
  List.iter
    (fun (name, x) ->
      rejects ("rate " ^ name) (fun () -> create ~emission:(Poisson x) ());
      rejects ("heavy-tail mean " ^ name) (fun () ->
          create ~emission:(Heavy_tail { alpha = 1.2; max_batch = 10; mean = x }) ());
      rejects ("alpha " ^ name) (fun () ->
          create ~emission:(Heavy_tail { alpha = x; max_batch = 10; mean = 1.0 }) ()))
    bad_floats;
  rejects "alpha 0" (fun () ->
      create ~emission:(Heavy_tail { alpha = 0.0; max_batch = 10; mean = 1.0 }) ());
  rejects "max_batch 0" (fun () ->
      create ~emission:(Heavy_tail { alpha = 1.2; max_batch = 0; mean = 1.0 }) ())

(* The kernel is public in the prelude, so it guards the shapes its loop
   would divide by or index with. *)
let test_kernel_rejects_bad_shapes () =
  let kernel ?(sources = 3) ?(max_batch = 1) label () =
    Rng.Bank.create ~rng:(Rng.create ~seed:1) ~sources ~p_on_to_off:0.1
      ~p_off_to_on:0.1 ~lambda:1.0 ~batch_p:0.0 ~alpha:1.0 ~max_batch ~label
  in
  rejects "sources -1" (kernel ~sources:(-1) (Uniform_port 2));
  rejects "max_batch 0" (kernel ~max_batch:0 (Uniform_port 2));
  rejects "0 ports" (kernel (Uniform_port 0));
  rejects "0 ports, value = port + 1" (kernel (Value_equals_port 0));
  rejects "0 values" (kernel (Uniform_port_and_value { n = 2; k = 0 }));
  rejects "empty weights" (kernel (Weighted { cumulative = [||]; value_of_port = [||] }));
  rejects "unequal weighted arrays"
    (kernel (Weighted { cumulative = [| 1.0; 2.0 |]; value_of_port = [| 1 |] }))

(* A probability outside [0, 1] or NaN has no integer threshold, and a
   negative or non-finite mean no Poisson limit: the kernel itself
   refuses them. *)
let test_kernel_rejects_bad_parameters () =
  let kernel ?(p_on_to_off = 0.1) ?(p_off_to_on = 0.1) ?(lambda = 1.0)
      ?(batch_p = 0.5) () =
    Rng.Bank.create ~rng:(Rng.create ~seed:1) ~sources:3 ~p_on_to_off ~p_off_to_on
      ~lambda ~batch_p ~alpha:1.0 ~max_batch:1 ~label:(Uniform_port 2)
  in
  List.iter
    (fun (name, p) ->
      rejects ("kernel p_on_to_off " ^ name) (kernel ~p_on_to_off:p);
      rejects ("kernel p_off_to_on " ^ name) (kernel ~p_off_to_on:p);
      rejects ("kernel batch_p " ^ name) (kernel ~batch_p:p))
    (("1.5", 1.5) :: ("-0.5", -0.5) :: bad_floats);
  List.iter
    (fun (name, x) -> rejects ("kernel lambda " ^ name) (kernel ~lambda:x))
    bad_floats;
  (* The ends of the ranges stay accepted. *)
  List.iter
    (fun p ->
      ignore (kernel ~p_on_to_off:p ~p_off_to_on:p ~batch_p:p ());
      ignore (kernel ~lambda:p ()))
    [ 0.0; 1.0 ]

(* --- the daemon's bank --- *)

let test_single_shard_is_the_workload () =
  let mmpp = { Scenario.default_mmpp with sources = 30 } in
  let bank =
    Smbm_serve.Mmpp_bank.create ~mmpp (Smbm_sim.Model.Proc base_proc) ~load:2.0
      ~seed:5 ()
  in
  let w = Scenario.proc_workload ~mmpp ~config:base_proc ~load:2.0 ~seed:(5 + 1000003) () in
  let a = Arrival_batch.create () and b = Arrival_batch.create () in
  for _ = 1 to 200 do
    Smbm_serve.Mmpp_bank.fill bank a;
    Workload.next_into w b;
    if Slot_list.of_batch a <> Slot_list.of_batch b then
      Alcotest.fail "single-shard bank diverged from its workload"
  done

let suite =
  [
    Qc.to_alcotest prop_bank_matches_oracle;
    Alcotest.test_case "paper-scale lockstep, three labels" `Quick
      test_paper_scale_lockstep;
    Alcotest.test_case "transition grid: bank sizes x degenerate thresholds"
      `Quick test_transition_grid;
    Alcotest.test_case "mean rate sums per source" `Quick test_mean_rate;
    Alcotest.test_case "next_into allocates nothing" `Quick
      test_steady_state_allocation;
    Alcotest.test_case "rejects bad load" `Quick test_rejects_bad_load;
    Alcotest.test_case "rejects bad probabilities" `Quick
      test_rejects_bad_probabilities;
    Alcotest.test_case "rejects bad emission" `Quick test_rejects_bad_emission;
    Alcotest.test_case "kernel rejects bad shapes" `Quick
      test_kernel_rejects_bad_shapes;
    Alcotest.test_case "kernel rejects bad parameters" `Quick
      test_kernel_rejects_bad_parameters;
    Alcotest.test_case "single shard fills the batch directly" `Quick
      test_single_shard_is_the_workload;
  ]
