(* Benchmark harness: regenerates every evaluation artifact of the paper.

     dune exec bench/main.exe              -- everything (quick profile)
     dune exec bench/main.exe fig5         -- the nine panels of Fig. 5
     dune exec bench/main.exe lowerbounds  -- the Thm 1-6 / 9-11 table
     dune exec bench/main.exe fairness     -- Jain / starvation / latency
     dune exec bench/main.exe ablations    -- LWD variants, RSV, RAND,
                                              heavy tails, config families
     dune exec bench/main.exe flood        -- MRD vs LQD, skewed regime
     dune exec bench/main.exe hybrid       -- combined work+value extension
     dune exec bench/main.exe certificate  -- Theorem 7's proof, live

   Scaling knobs (environment):
     SMBM_BENCH_SLOTS    slots per sweep point   (default 20_000)
     SMBM_BENCH_SOURCES  MMPP sources            (default 100)
     SMBM_BENCH_FULL=1   paper scale: 2_000_000 slots, 500 sources
     SMBM_JOBS           worker domains (also: -j N; default: all cores)
   A malformed knob exits 2 with a message.

   Independent simulations (Fig. 5 sweep points, lower-bound constructions)
   are sharded across an Smbm_par.Pool of OCaml domains.  Output is
   bit-identical for every job count; only the [time] lines differ.

   The quick profile finishes in a few minutes and already reproduces the
   qualitative shape of every panel; the full profile matches the paper's
   simulation length. *)

open Smbm_core
open Smbm_sim
open Smbm_report

(* A malformed knob is a usage error, never a silent fallback to the
   defaults. *)
let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("bench: " ^ msg);
      exit 2)
    fmt

let env_int name default =
  match Sys.getenv_opt name with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some v when v >= 1 -> v
    | Some _ | None -> usage_error "%s=%S: expected a positive integer" name s)
  | None -> default

let full = Sys.getenv_opt "SMBM_BENCH_FULL" = Some "1"
let slots = if full then 2_000_000 else env_int "SMBM_BENCH_SLOTS" 20_000
let sources = if full then 500 else env_int "SMBM_BENCH_SOURCES" 100

(* [section] is the first non-flag argument; [-j N] overrides SMBM_JOBS. *)
let section, jobs =
  let rec parse section jobs = function
    | [] -> (section, jobs)
    | "-j" :: n :: rest -> (
      match int_of_string_opt n with
      | Some j when j >= 0 -> parse section (Some j) rest
      | Some _ | None -> usage_error "-j %S: expected a non-negative integer" n)
    | [ "-j" ] -> usage_error "-j needs a value"
    | arg :: rest ->
      parse (if section = None then Some arg else section) jobs rest
  in
  let section, jobs = parse None None (List.tl (Array.to_list Sys.argv)) in
  ( Option.value section ~default:"all",
    match jobs with
    | Some j -> j
    | None -> (
      try Smbm_par.Pool.default_jobs ()
      with Invalid_argument msg -> usage_error "%s" msg) )

(* Wall and CPU time for each phase.  Wall time is what parallelism
   improves; CPU time ([Sys.time], all domains summed) can exceed it.  The
   [time] prefix lets determinism checks strip these lines (they are the
   only schedule-dependent output). *)
let timed name f =
  let w0 = Unix.gettimeofday () and c0 = Sys.time () in
  let r = f () in
  Printf.printf "[time] %s: wall %.1fs, cpu %.1fs, jobs %d\n" name
    (Unix.gettimeofday () -. w0)
    (Sys.time () -. c0) jobs;
  r

(* Progress ticks go to stderr so stdout stays diffable. *)
let progress label total = Smbm_obs.Progress.make ~label ~total ()

(* Pool utilization behind the same strippable prefix. *)
let pool_timing name tm =
  Format.printf "[time] %s pool: %a@." name Smbm_par.Pool.pp_timing tm

let base =
  {
    Sweep.default_base with
    Sweep.slots;
    flush_every = Some (max 1 (slots / 20));
    mmpp = { Smbm_traffic.Scenario.default_mmpp with sources };
  }

(* ----- Fig. 5 ----- *)

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

let print_panel (outcome : Sweep.outcome) =
  let n = outcome.Sweep.panel.Sweep.number in
  let points = outcome.Sweep.points in
  let names =
    match points with p :: _ -> List.map fst p.Sweep.ratios | [] -> []
  in
  let axis =
    match outcome.Sweep.panel.Sweep.axis with
    | Sweep.K -> "k"
    | Sweep.B -> "B"
    | Sweep.C -> "C"
  in
  Printf.printf "--- Fig. 5 (%d): %s ---\n" n (panel_description n);
  let headers = axis :: names in
  let rows =
    List.map
      (fun (p : Sweep.point) ->
        string_of_int p.x
        :: List.map (fun (_, r) -> Table.float_cell r) p.ratios)
      points
  in
  print_string (Table.render ~headers ~rows ());
  let series =
    List.map
      (fun name ->
        Series.of_ints ~name
          ~points:
            (List.map
               (fun (p : Sweep.point) -> (p.x, List.assoc name p.ratios))
               points))
      names
  in
  print_string
    (Ascii_plot.render ~height:12
       ~title:(Printf.sprintf "competitive ratio vs %s" axis)
       ~x_label:axis ~log_x:true series);
  print_newline ()

let fig5 () =
  Printf.printf
    "=== Fig. 5: empirical competitive ratios (%d slots, %d sources) ===\n\n"
    slots sources;
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
      ~on_timing:(pool_timing "fig5") ~base numbers
  in
  List.iter print_panel outcomes

(* ----- Lower bounds ----- *)

let lowerbounds () =
  print_endline "=== Lower-bound constructions (Theorems 1-6, 9-11) ===\n";
  let all = Smbm_lowerbounds.Constructions.all in
  let measures =
    Smbm_lowerbounds.Runner.measure_many ~jobs
      ~on_tick:(progress "lowerbounds" (List.length all))
      (List.map
         (fun (c : Smbm_lowerbounds.Constructions.t) -> c.measure)
         all)
  in
  let rows =
    List.map2
      (fun (c : Smbm_lowerbounds.Constructions.t)
           (m : Smbm_lowerbounds.Runner.measured) ->
        [
          c.theorem;
          c.policy;
          (match c.model with `Proc -> "proc" | `Value -> "value");
          c.bound_text;
          Table.float_cell m.Smbm_lowerbounds.Runner.ratio;
          Table.float_cell c.finite_bound;
          Table.float_cell c.asymptotic_bound;
        ])
      all measures
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

(* ----- Fairness detail (Fig. 5 (1) base point, extra dimensions) ----- *)

let fairness () =
  print_endline
    "=== Fairness and latency detail at the congested base point\n\
     (k = 32, processing model) ===\n";
  let details =
    Sweep.run_point_detailed ~base ~model:Sweep.Proc ~axis:Sweep.K ~x:32
  in
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
         [ "policy"; "ratio"; "jain"; "starved"; "lat-mean"; "lat-p99"; "drop" ]
       ~rows ());
  print_endline
    "\n(the paper's fairness motivation made quantitative: value-blind\n\
     sharing lets heavy queues crowd the buffer; BPD trades fairness for\n\
     small packets)\n"

(* ----- Ablations ----- *)

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

let ablations () =
  print_endline
    "=== Ablations: LWD design choices and baselines (not in the paper) ===\n";
  let config =
    Proc_config.contiguous ~k:32 ~buffer:base.Sweep.buffer
      ~speedup:base.Sweep.speedup ()
  in
  let workload =
    Smbm_traffic.Scenario.proc_workload ~mmpp:base.Sweep.mmpp
      ~reference:
        (Proc_config.contiguous ~k:base.Sweep.k ~buffer:base.Sweep.buffer
           ~speedup:base.Sweep.speedup ())
      ~config ~load:base.Sweep.load ~seed:base.Sweep.seed ()
  in
  let instances =
    Opt_ref.proc_instance config
    :: List.map (Engine.Proc.instance config) (Policies.proc_extended config)
  in
  let ratios = ablation_point ~instances ~workload ~objective:`Packets in
  print_endline "processing model, k = 32 (paper set + variants):";
  print_string
    (Table.render ~headers:[ "policy"; "ratio" ]
       ~rows:(List.map (fun (n, r) -> [ n; Table.float_cell r ]) ratios)
       ());
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
  let vratios =
    ablation_point ~instances:vinstances ~workload:vworkload ~objective:`Value
  in
  print_endline "\nvalue model (uniform), k = 16 (uniform set + variants):";
  print_string
    (Table.render ~headers:[ "policy"; "ratio" ]
       ~rows:(List.map (fun (n, r) -> [ n; Table.float_cell r ]) vratios)
       ());
  print_endline
    "\n(LWD's tie-breaking barely matters; protecting a queue's last packet\n\
     is mostly neutral for LWD; random eviction marks the floor structured\n\
     eviction must beat)\n";
  (* Traffic ablation: heavy-tailed (Pareto) batch sizes at the same mean
     load, the self-similar-looking regime real switches face. *)
  let ht_workload =
    Smbm_traffic.Scenario.proc_heavy_tail_workload ~mmpp:base.Sweep.mmpp
      ~reference:
        (Proc_config.contiguous ~k:base.Sweep.k ~buffer:base.Sweep.buffer
           ~speedup:base.Sweep.speedup ())
      ~config ~load:base.Sweep.load ~seed:base.Sweep.seed ()
  in
  let ht_instances =
    Opt_ref.proc_instance config
    :: List.map (Engine.Proc.instance config) (Policies.proc config)
  in
  let ht_ratios =
    ablation_point ~instances:ht_instances ~workload:ht_workload
      ~objective:`Packets
  in
  print_endline
    "processing model, k = 32, heavy-tailed (Pareto alpha = 1.2) bursts at\n\
     the same mean load:";
  print_string
    (Table.render ~headers:[ "policy"; "ratio" ]
       ~rows:(List.map (fun (n, r) -> [ n; Table.float_cell r ]) ht_ratios)
       ());
  print_endline
    "(the ordering survives self-similar-looking traffic; LWD stays in\n\
     front)\n";
  (* Configuration-family ablation: the theory covers ANY assignment of
     works to ports, not just the contiguous one used in Fig. 5. *)
  let families =
    [
      ("contiguous 1..32", Proc_config.contiguous ~k:32 ~buffer:base.Sweep.buffer ());
      ("uniform x16", Proc_config.uniform ~n:32 ~work:16 ~buffer:base.Sweep.buffer ());
      ( "bimodal 1|31 (8 hot ports)",
        Proc_config.bimodal ~n:32 ~cheap:1 ~expensive:31 ~buffer:base.Sweep.buffer () );
      ("geometric 1,2,..,32", Proc_config.geometric ~n:6 ~buffer:base.Sweep.buffer ());
    ]
  in
  let names =
    List.map (fun (p : Smbm_core.Proc_switch.t Smbm_core.Policy.t) -> p.name)
      (Policies.proc (snd (List.hd families)))
  in
  let rows =
    List.map
      (fun (label, config) ->
        let workload =
          Smbm_traffic.Scenario.proc_workload ~mmpp:base.Sweep.mmpp ~config
            ~load:base.Sweep.load ~seed:base.Sweep.seed ()
        in
        let instances =
          Opt_ref.proc_instance config
          :: List.map (Engine.Proc.instance config) (Policies.proc config)
        in
        let ratios = ablation_point ~instances ~workload ~objective:`Packets in
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

(* ----- MRD vs LQD in the skewed regime the paper points at ----- *)

let flood () =
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
                Experiment.slots = slots;
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

(* ----- Hybrid (work + value) extension model ----- *)

let hybrid () =
  print_endline
    "=== Extension: the combined work + value model (the paper's stated\n\
     future direction) ===\n";
  let works = [| 1; 2; 4; 8 |] in
  let cfg = Proc_config.make ~works ~buffer:24 ~max_value:8 () in
  let module R = Smbm_prelude.Rng in
  let trace_at lambda =
    let rng = R.create ~seed:base.Sweep.seed in
    Array.init (min slots 8_000) (fun _ ->
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
    (Metrics.transmitted_value inst.Instance.metrics)
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

(* ----- Theorem 7 mapping certificate ----- *)

let certificate () =
  print_endline
    "=== Theorem 7's proof, executed: the Fig. 3 mapping routine run live\n\
     (LWD vs a greedy opponent on bursty traffic) ===\n";
  let config = Proc_config.contiguous ~k:8 ~buffer:32 () in
  let greedy =
    Policy.make ~name:"greedy" ~push_out:false (fun sw ~dest:_ ~value:_ ->
        if Proc_switch.is_full sw then Decision.drop else Decision.accept)
  in
  let workload =
    Smbm_traffic.Scenario.proc_workload
      ~mmpp:{ base.Sweep.mmpp with sources = min sources 100 }
      ~config ~load:2.5 ~seed:base.Sweep.seed ()
  in
  let r =
    Smbm_analysis.Mapping_certifier.run ~config ~opponent:greedy ~workload
      ~slots:(min slots 5_000) ()
  in
  Format.printf "  %a@." Smbm_analysis.Mapping_certifier.pp_report r;
  print_endline
    "\n(zero violations = a machine-checked run of the 2-competitiveness\n\
     charging argument on this input; strict_a0_mismatches counts failures\n\
     of the paper's literal Lemma 8 invariant, whose gap and repair are\n\
     documented in EXPERIMENTS.md)\n"

let () =
  match section with
  | "fig5" -> timed "fig5" fig5
  | "lowerbounds" -> timed "lowerbounds" lowerbounds
  | "fairness" -> timed "fairness" fairness
  | "ablations" -> timed "ablations" ablations
  | "hybrid" -> timed "hybrid" hybrid
  | "flood" -> timed "flood" flood
  | "certificate" -> timed "certificate" certificate
  | "all" ->
    timed "lowerbounds" lowerbounds;
    timed "fig5" fig5;
    timed "fairness" fairness;
    timed "ablations" ablations;
    timed "flood" flood;
    timed "hybrid" hybrid;
    timed "certificate" certificate
  | other ->
    Printf.eprintf
      "unknown section %S (expected \
       fig5|lowerbounds|fairness|ablations|flood|hybrid|certificate|all)\n"
      other;
    exit 2
