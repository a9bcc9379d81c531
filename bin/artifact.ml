(* Section V of the paper, reproduced: the sections of
   [smbm_cli reproduce], and the printers it shares with the
   single-experiment verbs ([figure], [lowerbound], [compare --detail],
   [certify]), so each table has one renderer.

   Stdout carries only the tables, bit-identical for every job count; the
   [time] lines and progress ticks go to stderr. *)

open Smbm_core
open Smbm_sim
open Smbm_report

(* ----- printers shared with the other verbs ----- *)

let panel_description = function
  | 1 -> "processing model: ratio vs maximal work k"
  | 2 -> "processing model: ratio vs buffer size B"
  | 3 -> "processing model: ratio vs speedup C"
  | 4 -> "value model (uniform port and value): ratio vs k"
  | 5 -> "value model (uniform port and value): ratio vs B"
  | 6 -> "value model (uniform port and value): ratio vs C"
  | 7 -> "value model (value = port): ratio vs k"
  | 8 -> "value model (value = port): ratio vs B"
  | _ -> "value model (value = port): ratio vs C"

let axis_name = function Sweep.K -> "k" | Sweep.B -> "B" | Sweep.C -> "C"

(* Headers and rows of a ratio table: the swept value, then one column
   per policy.  [figure --csv] and [sweep --csv] write the same cells. *)
let ratio_table ~axis points =
  let names = match points with (_, r) :: _ -> List.map fst r | [] -> [] in
  ( axis :: names,
    List.map
      (fun (x, ratios) ->
        string_of_int x :: List.map (fun (_, r) -> Table.float_cell r) ratios)
      points )

let panel_table (outcome : Sweep.outcome) =
  ratio_table
    ~axis:(axis_name outcome.Sweep.panel.Sweep.axis)
    (List.map (fun (p : Sweep.point) -> (p.x, p.ratios)) outcome.Sweep.points)

let print_panel (outcome : Sweep.outcome) =
  let n = outcome.Sweep.panel.Sweep.number in
  let points = outcome.Sweep.points in
  let headers, rows = panel_table outcome in
  let axis = List.hd headers in
  Printf.printf "--- Fig. 5 (%d): %s ---\n" n (panel_description n);
  print_string (Table.render ~headers ~rows ());
  let series =
    List.map
      (fun name ->
        Series.of_ints ~name
          ~points:
            (List.map
               (fun (p : Sweep.point) -> (p.x, List.assoc name p.ratios))
               points))
      (List.tl headers)
  in
  print_string
    (Ascii_plot.render ~height:12
       ~title:(Printf.sprintf "competitive ratio vs %s" axis)
       ~x_label:axis ~log_x:true series);
  print_newline ()

(* Measure the constructions and print the closed-form bounds beside the
   measured ratios. *)
let print_lowerbounds ~jobs ?on_tick entries =
  let module LB = Smbm_lowerbounds in
  let measures =
    LB.Runner.measure_many ~jobs ?on_tick
      (List.map (fun (c : LB.Constructions.t) -> c.measure) entries)
  in
  let rows =
    List.map2
      (fun (c : LB.Constructions.t) (m : LB.Runner.measured) ->
        [
          c.theorem;
          c.policy;
          (match c.model with `Proc -> "proc" | `Value -> "value");
          c.bound_text;
          Table.float_cell m.LB.Runner.ratio;
          Table.float_cell c.finite_bound;
          Table.float_cell c.asymptotic_bound;
        ])
      entries measures
  in
  print_string
    (Table.render
       ~headers:
         [
           "theorem"; "policy"; "model"; "bound"; "measured"; "finite";
           "asymptotic";
         ]
       ~rows ());
  print_endline
    "\n(measured should track the finite column: each construction achieves\n\
     its proof's episode ratio at these finite parameters)\n"

let print_details ~ratio_header details =
  let rows =
    List.map
      (fun (name, (d : Sweep.detail)) ->
        [
          name;
          Table.float_cell d.ratio;
          Table.float_cell d.jain;
          string_of_int d.starved;
          Table.float_cell ~digits:1 d.mean_latency;
          Table.float_cell ~digits:1 d.p99_latency;
          Table.float_cell ~digits:4 d.drop_rate;
        ])
      details
  in
  print_string
    (Table.render
       ~headers:
         [
           "policy"; ratio_header; "jain"; "starved"; "lat-mean"; "lat-p99";
           "drop";
         ]
       ~rows ())

(* Theorem 7's mapping routine, LWD against [opponent] on MMPP traffic;
   prints the report and returns it. *)
let certify ~config ~opponent ~sources ~load ~seed ~slots =
  let mmpp = { Smbm_traffic.Scenario.default_mmpp with sources } in
  let workload =
    Smbm_traffic.Scenario.proc_workload ~mmpp ~config ~load ~seed ()
  in
  let report =
    Smbm_analysis.Mapping_certifier.run ~config ~opponent ~workload ~slots ()
  in
  Format.printf "  %a@." Smbm_analysis.Mapping_certifier.pp_report report;
  report

(* ----- the sections ----- *)

type section =
  | Fig5
  | Lowerbounds
  | Fairness
  | Ablations
  | Flood
  | Hybrid
  | Certificate

let name = function
  | Fig5 -> "fig5"
  | Lowerbounds -> "lowerbounds"
  | Fairness -> "fairness"
  | Ablations -> "ablations"
  | Flood -> "flood"
  | Hybrid -> "hybrid"
  | Certificate -> "certificate"

(* [reproduce]'s SECTION values: each section alone, or all of them
   (lower bounds first). *)
let choices =
  List.map
    (fun s -> (name s, [ s ]))
    [ Fig5; Lowerbounds; Fairness; Ablations; Flood; Hybrid; Certificate ]
  @ [
      ( "all",
        [ Lowerbounds; Fig5; Fairness; Ablations; Flood; Hybrid; Certificate ]
      );
    ]

(* Progress ticks go to stderr so stdout stays diffable. *)
let progress label total = Smbm_obs.Progress.make ~label ~total ()

let fig5 ~jobs (base : Sweep.base) =
  Printf.printf
    "=== Fig. 5: empirical competitive ratios (%d slots, %d sources) ===\n\n"
    base.Sweep.slots base.Sweep.mmpp.Smbm_traffic.Scenario.sources;
  let numbers = [ 1; 2; 3; 4; 5; 6; 7; 8; 9 ] in
  let total =
    List.fold_left
      (fun acc n -> acc + List.length (Sweep.panel n).Sweep.xs)
      0 numbers
  in
  (* All nine panels' points sharded across one pool: the unit of work is a
     single sweep-point simulation, so the pool stays busy even when panels
     have few points. *)
  let outcomes =
    Smbm_par.Par_sweep.run_panels ~jobs ~on_tick:(progress "fig5" total)
      ~on_timing:(fun tm ->
        Format.eprintf "[time] fig5 pool: %a@." Smbm_par.Pool.pp_timing tm)
      ~base numbers
  in
  List.iter print_panel outcomes

let lowerbounds ~jobs =
  print_endline "=== Lower-bound constructions (Theorems 1-6, 9-11) ===\n";
  let all = Smbm_lowerbounds.Constructions.all in
  print_lowerbounds ~jobs
    ~on_tick:(progress "lowerbounds" (List.length all))
    all

(* Fig. 5 (1)'s congested base point, extra dimensions. *)
let fairness base =
  print_endline
    "=== Fairness and latency detail at the congested base point\n\
     (k = 32, processing model) ===\n";
  print_details ~ratio_header:"ratio"
    (Sweep.run_point_detailed ~base ~model:Sweep.Proc ~axis:Sweep.K ~x:32);
  print_endline
    "\n(the paper's fairness motivation made quantitative: value-blind\n\
     sharing lets heavy queues crowd the buffer; BPD trades fairness for\n\
     small packets)\n"

let print_ratios ratios =
  print_string
    (Table.render ~headers:[ "policy"; "ratio" ]
       ~rows:(List.map (fun (n, r) -> [ n; Table.float_cell r ]) ratios)
       ())

let ablations (base : Sweep.base) =
  let slots = base.Sweep.slots in
  let ablation_point ~instances ~workload ~objective =
    Experiment.run
      ~params:
        {
          Experiment.slots = slots / 2;
          flush_every = Some (max 1 (slots / 40));
          check_every = None;
        }
      ~workload instances;
    match instances with
    | opt :: algs -> Experiment.ratios ~objective ~opt ~algs
    | [] -> []
  in
  print_endline
    "=== Ablations: LWD design choices and baselines (not in the paper) ===\n";
  let config =
    Proc_config.contiguous ~k:32 ~buffer:base.Sweep.buffer
      ~speedup:base.Sweep.speedup ()
  in
  let reference =
    Proc_config.contiguous ~k:base.Sweep.k ~buffer:base.Sweep.buffer
      ~speedup:base.Sweep.speedup ()
  in
  let workload =
    Smbm_traffic.Scenario.proc_workload ~mmpp:base.Sweep.mmpp ~reference
      ~config ~load:base.Sweep.load ~seed:base.Sweep.seed ()
  in
  let instances =
    Opt_ref.proc_instance config
    :: List.map (Engine.Proc.instance config) (Policies.proc_extended config)
  in
  print_endline "processing model, k = 32 (paper set + variants):";
  print_ratios (ablation_point ~instances ~workload ~objective:`Packets);
  let vconfig =
    Value_config.make ~ports:16 ~max_value:16 ~buffer:base.Sweep.buffer ()
  in
  let vworkload =
    Smbm_traffic.Scenario.value_uniform_workload ~mmpp:base.Sweep.mmpp
      ~config:vconfig ~load:base.Sweep.load ~seed:base.Sweep.seed ()
  in
  let vinstances =
    Opt_ref.value_instance vconfig
    :: List.map
         (Engine.Value.instance vconfig)
         (Policies.value_extended vconfig)
  in
  print_endline "\nvalue model (uniform), k = 16 (uniform set + variants):";
  print_ratios
    (ablation_point ~instances:vinstances ~workload:vworkload
       ~objective:`Value);
  print_endline
    "\n(LWD's tie-breaking barely matters; protecting a queue's last packet\n\
     is mostly neutral for LWD; random eviction marks the floor structured\n\
     eviction must beat)\n";
  (* Traffic ablation: heavy-tailed (Pareto) batch sizes at the same mean
     load, the self-similar-looking regime real switches face. *)
  let ht_workload =
    Smbm_traffic.Scenario.proc_heavy_tail_workload ~mmpp:base.Sweep.mmpp
      ~reference ~config ~load:base.Sweep.load ~seed:base.Sweep.seed ()
  in
  let paper_instances config =
    Opt_ref.proc_instance config
    :: List.map (Engine.Proc.instance config) (Policies.proc config)
  in
  print_endline
    "processing model, k = 32, heavy-tailed (Pareto alpha = 1.2) bursts at\n\
     the same mean load:";
  print_ratios
    (ablation_point ~instances:(paper_instances config) ~workload:ht_workload
       ~objective:`Packets);
  print_endline
    "(the ordering survives self-similar-looking traffic; LWD stays in\n\
     front)\n";
  (* Configuration-family ablation: the theory covers ANY assignment of
     works to ports, not just the contiguous one used in Fig. 5. *)
  let buffer = base.Sweep.buffer in
  let families =
    [
      ("contiguous 1..32", Proc_config.contiguous ~k:32 ~buffer ());
      ("uniform x16", Proc_config.uniform ~n:32 ~work:16 ~buffer ());
      ( "bimodal 1|31 (8 hot ports)",
        Proc_config.bimodal ~n:32 ~cheap:1 ~expensive:31 ~buffer () );
      ("geometric 1,2,..,32", Proc_config.geometric ~n:6 ~buffer ());
    ]
  in
  let names =
    List.map
      (fun (p : Proc_switch.t Policy.t) -> p.name)
      (Policies.proc (snd (List.hd families)))
  in
  let rows =
    List.map
      (fun (label, config) ->
        let workload =
          Smbm_traffic.Scenario.proc_workload ~mmpp:base.Sweep.mmpp ~config
            ~load:base.Sweep.load ~seed:base.Sweep.seed ()
        in
        let ratios =
          ablation_point ~instances:(paper_instances config) ~workload
            ~objective:`Packets
        in
        label :: List.map (fun (_, r) -> Table.float_cell r) ratios)
      families
  in
  print_endline
    "configuration families (same normalized load, paper policy set):";
  print_string (Table.render ~headers:("configuration" :: names) ~rows ());
  print_endline
    "(LWD's lead is not an artifact of the contiguous configuration; under\n\
     uniform works LWD tracks LQD to within head-of-line tie-breaking - the\n\
     residual work of a partially served packet is the only thing the two\n\
     argmaxes can disagree on)\n"

(* MRD vs LQD in the skewed regime the paper points at. *)
let flood (base : Sweep.base) =
  let slots = base.Sweep.slots in
  print_endline
    "=== MRD vs LQD under a cheap-traffic flood (the paper: \"[MRD's]\n\
     advantage grows for distributions that prioritize certain values at\n\
     specific queues\") ===\n";
  let config = Value_config.make ~ports:16 ~max_value:16 ~buffer:64 () in
  let rows =
    List.map
      (fun load ->
        let run policy =
          let workload =
            Smbm_traffic.Scenario.value_port_flood_workload
              ~mmpp:base.Sweep.mmpp ~config ~load ~seed:base.Sweep.seed ()
          in
          let alg = Engine.Value.instance config policy in
          let opt = Opt_ref.value_instance config in
          Experiment.run
            ~params:
              {
                Experiment.slots;
                flush_every = Some (max 1 (slots / 10));
                check_every = None;
              }
            ~workload [ alg; opt ];
          Experiment.ratio ~objective:`Value ~opt ~alg
        in
        [
          Printf.sprintf "%.1f" load;
          Table.float_cell (run (V_lqd.make config));
          Table.float_cell (run (V_mrd.make config));
        ])
      [ 1.0; 1.5; 2.0 ]
  in
  print_string (Table.render ~headers:[ "load"; "LQD"; "MRD" ] ~rows ());
  print_endline
    "\n(port weights proportional to (n - i)^2: low-value ports flood the\n\
     buffer; MRD's protection of valuable queues beats LQD's balance at\n\
     every load here, while under uniform overload the two tie - see\n\
     EXPERIMENTS.md)\n"

(* The combined work + value extension model. *)
let hybrid (base : Sweep.base) =
  print_endline
    "=== Extension: the combined work + value model (the paper's stated\n\
     future direction) ===\n";
  let works = [| 1; 2; 4; 8 |] in
  let cfg = Proc_config.make ~works ~buffer:24 ~max_value:8 () in
  let module R = Smbm_prelude.Rng in
  let trace_at lambda =
    let rng = R.create ~seed:base.Sweep.seed in
    Array.init (min base.Sweep.slots 8_000) (fun _ ->
        List.init (R.poisson rng ~lambda) (fun _ ->
            let dest = R.int rng 4 in
            (* Values anti-correlated with work: the heavy ports carry the
               cheap traffic. *)
            let value = 1 + R.int rng (9 - works.(dest)) in
            Arrival.make ~dest ~value ()))
  in
  let run trace (p : Proc_switch.t Policy.t) =
    let inst = Engine.Proc.instance cfg p in
    Experiment.run
      ~params:
        {
          Experiment.slots = Array.length trace + 100;
          flush_every = None;
          check_every = None;
        }
      ~workload:
        (Smbm_traffic.Workload.of_fun (fun i ->
             if i < Array.length trace then trace.(i) else []))
      [ inst ];
    Metrics.transmitted_value inst.Instance.metrics
  in
  let policies = Policies.hybrid cfg in
  let names = List.map (fun (p : Proc_switch.t Policy.t) -> p.name) policies in
  let rows =
    List.map
      (fun lambda ->
        let trace = trace_at lambda in
        Printf.sprintf "%.0f" lambda
        :: List.map (fun p -> string_of_int (run trace p)) policies)
      [ 2.0; 4.0; 8.0 ]
  in
  print_endline
    "transmitted value, works {1,2,4,8}, values anti-correlated with work,\n\
     B = 24 (higher is better):";
  print_string (Table.render ~headers:("lambda" :: names) ~rows ());
  print_endline
    "\n(no naive combination dominates: the value-blind LWD holds moderate\n\
     congestion, MVD's keep-the-valuable-tails wins extreme congestion, and\n\
     the queue-aggregate WVD collapses there - port monopolization, BPD's\n\
     pathology in a new coat.  The combined model's 'ideal policy' question\n\
     is genuinely open.)\n"

let certificate (base : Sweep.base) =
  print_endline
    "=== Theorem 7's proof, executed: the Fig. 3 mapping routine run live\n\
     (LWD vs a greedy opponent on bursty traffic) ===\n";
  let config = Proc_config.contiguous ~k:8 ~buffer:32 () in
  ignore
    (certify ~config
       ~opponent:(Option.get (Policies.proc_find config "greedy"))
       ~sources:(min base.Sweep.mmpp.Smbm_traffic.Scenario.sources 100)
       ~load:2.5 ~seed:base.Sweep.seed
       ~slots:(min base.Sweep.slots 5_000));
  print_endline
    "\n(zero violations = a machine-checked run of the 2-competitiveness\n\
     charging argument on this input; strict_a0_mismatches counts failures\n\
     of the paper's literal Lemma 8 invariant, whose gap and repair are\n\
     documented in EXPERIMENTS.md)\n"

(* Run [sections] at [slots] per sweep point over [sources] MMPP sources.
   Each section's wall and CPU time go to stderr: wall time is what
   parallelism improves; CPU time ([Sys.time], all domains summed) can
   exceed it. *)
let run ~jobs ~slots ~sources sections =
  let base =
    {
      Sweep.default_base with
      Sweep.slots;
      flush_every = Some (max 1 (slots / 20));
      mmpp = { Smbm_traffic.Scenario.default_mmpp with sources };
    }
  in
  List.iter
    (fun section ->
      let w0 = Unix.gettimeofday () and c0 = Sys.time () in
      (match section with
      | Fig5 -> fig5 ~jobs base
      | Lowerbounds -> lowerbounds ~jobs
      | Fairness -> fairness base
      | Ablations -> ablations base
      | Flood -> flood base
      | Hybrid -> hybrid base
      | Certificate -> certificate base);
      Printf.eprintf "[time] %s: wall %.1fs, cpu %.1fs, jobs %d\n%!"
        (name section)
        (Unix.gettimeofday () -. w0)
        (Sys.time () -. c0) jobs)
    sections
