open Smbm_sim
open Smbm_par

(* Small enough to run many sequential/parallel pairs, large enough that the
   switches actually congest and the ratios are non-trivial. *)
let tiny_base =
  {
    Sweep.default_base with
    Sweep.k = 4;
    buffer = 16;
    load = 2.5;
    slots = 1_200;
    flush_every = Some 300;
    mmpp = { Smbm_traffic.Scenario.default_mmpp with sources = 20 };
  }

let xs = [ 2; 4; 8 ]

(* Bit-identical means equality of the float's bit pattern, not an
   epsilon (and it keeps infinities comparable). *)
let exact_float =
  Alcotest.testable Fmt.float (fun a b ->
      Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))

let ratios = Alcotest.(list (pair string exact_float))

let check_outcome_equal msg (a : Sweep.outcome) (b : Sweep.outcome) =
  Alcotest.(check int) (msg ^ ": panel number") a.Sweep.panel.Sweep.number
    b.Sweep.panel.Sweep.number;
  Alcotest.(check (list int))
    (msg ^ ": xs")
    (List.map (fun (p : Sweep.point) -> p.Sweep.x) a.Sweep.points)
    (List.map (fun (p : Sweep.point) -> p.Sweep.x) b.Sweep.points);
  List.iter2
    (fun (pa : Sweep.point) (pb : Sweep.point) ->
      Alcotest.check ratios
        (Printf.sprintf "%s: ratios at x=%d" msg pa.Sweep.x)
        pa.Sweep.ratios pb.Sweep.ratios)
    a.Sweep.points b.Sweep.points

(* The oracle: [Sweep.run_point] over the panel's xs, one after another,
   every point generating its traffic live. *)
let sequential ?(xs = xs) number =
  let panel = { (Sweep.panel number) with Sweep.xs } in
  {
    Sweep.panel;
    points =
      List.map
        (fun x ->
          {
            Sweep.x;
            ratios =
              Sweep.run_point ~base:tiny_base ~model:panel.Sweep.model
                ~axis:panel.Sweep.axis ~x ();
          })
        xs;
  }

let test_run_panel_matches_sequential jobs () =
  let seq = sequential 1 in
  let par = Par_sweep.run_panel ~jobs ~base:tiny_base ~xs 1 in
  check_outcome_equal (Printf.sprintf "jobs=%d" jobs) seq par

let test_run_panel_value_model () =
  (* Panel 7 exercises the value-model path (value = port). *)
  let seq = sequential 7 in
  let par = Par_sweep.run_panel ~jobs:4 ~base:tiny_base ~xs 7 in
  check_outcome_equal "value model" seq par

let test_run_panels_matches_per_panel () =
  let numbers = [ 1; 4; 7 ] in
  let par = Par_sweep.run_panels ~jobs:4 ~base:tiny_base numbers in
  Alcotest.(check int) "one outcome per panel" (List.length numbers)
    (List.length par);
  List.iter2
    (fun n outcome ->
      (* run_panels uses the panels' default xs; so must the reference. *)
      let seq = sequential ~xs:(Sweep.panel n).Sweep.xs n in
      check_outcome_equal (Printf.sprintf "panel %d" n) seq outcome)
    numbers par

let test_run_points_matches_sequential () =
  let seq =
    List.map
      (fun x ->
        (x, Sweep.run_point ~base:tiny_base ~model:Sweep.Proc ~axis:Sweep.B ~x ()))
      [ 8; 16; 32 ]
  in
  let par =
    Par_sweep.run_points ~jobs:3 ~base:tiny_base ~model:Sweep.Proc
      ~axis:Sweep.B ~xs:[ 8; 16; 32 ] ()
  in
  List.iter2
    (fun (xa, ra) (xb, rb) ->
      Alcotest.(check int) "x" xa xb;
      Alcotest.check ratios (Printf.sprintf "ratios at %d" xa) ra rb)
    seq par

let replicated =
  Alcotest.(list (pair string (triple exact_float exact_float int)))

let flatten_reps reps =
  List.map
    (fun (name, (r : Sweep.replicated)) ->
      (name, (r.Sweep.mean, r.Sweep.stddev, r.Sweep.runs)))
    reps

let test_replicated_matches_sequential () =
  let seeds = Par_sweep.split_seeds ~seed:tiny_base.Sweep.seed 5 in
  let seq =
    Sweep.aggregate_replicates
      (List.map
         (fun seed ->
           Sweep.run_point
             ~base:{ tiny_base with Sweep.seed }
             ~model:Sweep.Proc ~axis:Sweep.K ~x:4 ())
         seeds)
  in
  let par =
    Par_sweep.run_point_replicated ~jobs:4 ~base:tiny_base ~model:Sweep.Proc
      ~axis:Sweep.K ~x:4 ~seeds ()
  in
  Alcotest.check replicated "replicates identical" (flatten_reps seq)
    (flatten_reps par)

let test_split_seeds_deterministic () =
  let a = Par_sweep.split_seeds ~seed:42 6 in
  let b = Par_sweep.split_seeds ~seed:42 6 in
  Alcotest.(check (list int)) "deterministic in seed" a b;
  let prefix = Par_sweep.split_seeds ~seed:42 3 in
  Alcotest.(check (list int))
    "prefix-stable as n grows" prefix
    (List.filteri (fun i _ -> i < 3) a);
  Alcotest.(check int) "all distinct" 6
    (List.length (List.sort_uniq compare a))

let test_replicated_empty_seeds () =
  Alcotest.check_raises "no seeds"
    (Invalid_argument "Par_sweep.run_point_replicated: no seeds") (fun () ->
      ignore
        (Par_sweep.run_point_replicated ~jobs:2 ~base:tiny_base
           ~model:Sweep.Proc ~axis:Sweep.K ~x:4 ~seeds:[] ()))

let suite =
  [
    Alcotest.test_case "run_panel = sequential (1 job)" `Slow
      (test_run_panel_matches_sequential 1);
    Alcotest.test_case "run_panel = sequential (2 jobs)" `Slow
      (test_run_panel_matches_sequential 2);
    Alcotest.test_case "run_panel = sequential (4 jobs)" `Slow
      (test_run_panel_matches_sequential 4);
    Alcotest.test_case "run_panel = sequential (value model)" `Slow
      test_run_panel_value_model;
    Alcotest.test_case "run_panels = per-panel run_panel" `Slow
      test_run_panels_matches_per_panel;
    Alcotest.test_case "run_points = sequential" `Slow
      test_run_points_matches_sequential;
    Alcotest.test_case "run_point_replicated = sequential" `Slow
      test_replicated_matches_sequential;
    Alcotest.test_case "split_seeds deterministic + distinct" `Quick
      test_split_seeds_deterministic;
    Alcotest.test_case "replicated rejects empty seeds" `Quick
      test_replicated_empty_seeds;
  ]
