open Smbm_core
open Smbm_traffic

type model = Proc | Value_uniform | Value_port
type axis = K | B | C

type base = {
  k : int;
  buffer : int;
  speedup : int;
  load : float;
  mmpp : Scenario.mmpp_params;
  slots : int;
  flush_every : int option;
  seed : int;
}

let default_base =
  {
    k = 16;
    buffer = 64;
    speedup = 1;
    load = 2.0;
    mmpp = Scenario.default_mmpp;
    slots = 50_000;
    flush_every = Some 2_500;
    seed = 42;
  }

type panel = { number : int; model : model; axis : axis; xs : int list }

let default_xs = function
  | K -> [ 2; 4; 8; 16; 32; 64 ]
  | B -> [ 16; 32; 64; 128; 256; 512; 1024 ]
  | C -> [ 1; 2; 3; 4; 6; 8; 12; 16 ]

let panel number =
  if number < 1 || number > 9 then invalid_arg "Sweep.panel: expected 1..9";
  let model =
    match (number - 1) / 3 with
    | 0 -> Proc
    | 1 -> Value_uniform
    | _ -> Value_port
  in
  let axis = match (number - 1) mod 3 with 0 -> K | 1 -> B | _ -> C in
  { number; model; axis; xs = default_xs axis }

type point = { x : int; ratios : (string * float) list }
type outcome = { panel : panel; points : point list }

let objective = function
  | Proc -> `Packets
  | Value_uniform | Value_port -> `Value

(* Effective parameters at sweep value [x]. *)
let apply_axis base axis x =
  match axis with
  | K -> { base with k = x }
  | B -> { base with buffer = x }
  | C -> { base with speedup = x }

let proc_setup ?events ~reference base =
  let config =
    Proc_config.contiguous ~k:base.k ~buffer:base.buffer ~speedup:base.speedup
      ()
  in
  let workload =
    Scenario.proc_workload ~mmpp:base.mmpp
      ~reference:
        (Proc_config.contiguous ~k:reference.k ~buffer:reference.buffer
           ~speedup:reference.speedup ())
      ~config ~load:base.load ~seed:base.seed ()
  in
  let instances =
    Opt_ref.proc_instance ?events config
    :: List.map (Proc_engine.instance ?events config) (Policies.proc config)
  in
  (workload, instances)

let value_setup ?events ~reference ~port_tied base =
  let config =
    Value_config.make ~ports:base.k ~max_value:base.k ~buffer:base.buffer
      ~speedup:base.speedup ()
  in
  let ref_config =
    Value_config.make ~ports:reference.k ~max_value:reference.k
      ~buffer:reference.buffer ~speedup:reference.speedup ()
  in
  let workload =
    if port_tied then
      Scenario.value_port_workload ~mmpp:base.mmpp ~reference:ref_config
        ~config ~load:base.load ~seed:base.seed ()
    else
      Scenario.value_uniform_workload ~mmpp:base.mmpp ~reference:ref_config
        ~config ~load:base.load ~seed:base.seed ()
  in
  let policies =
    if port_tied then
      Policies.value_port ~port_value:(Scenario.port_values config) config
    else Policies.value_uniform config
  in
  let instances =
    Opt_ref.value_instance ?events config
    :: List.map (Value_engine.instance ?events config) policies
  in
  (workload, instances)

(* [reference] carries the sweep's base parameters: the workload intensity is
   derived from it, not from the swept configuration, so the absolute traffic
   stays constant along the sweep (the paper's setup: growing k or C means
   growing capacity under the same offered traffic). *)
let setup ?reference ?events model base =
  let reference = Option.value reference ~default:base in
  match model with
  | Proc -> proc_setup ?events ~reference base
  | Value_uniform -> value_setup ?events ~reference ~port_tied:false base
  | Value_port -> value_setup ?events ~reference ~port_tied:true base

(* ----- trace cache -----

   The generated traffic of a sweep point depends on strictly fewer
   parameters than the point itself: the RNG streams are seeded by [seed]
   and consumed by the MMPP processes ([mmpp], per-source rate — a function
   of [load] and the *reference* capacity) and the labelling rule (a
   function of the swept config's port/value count, i.e. the effective [k]).
   The swept [buffer] and [speedup] never reach the generator, so every
   point of a B or C axis replays byte-identical traffic.  [trace_key]
   spells out exactly those inputs — a point's traffic is a pure function of
   its key, so sharing one materialized trace per key is correct by
   construction (and pinned by tests against live generation). *)

let effective base axis x = apply_axis base axis x

let trace_key ~base ~model ~axis ~x =
  let reference = base in
  let e = effective base axis x in
  let tag =
    match model with
    | Proc -> "proc"
    | Value_uniform -> "value_uniform"
    | Value_port -> "value_port"
  in
  Printf.sprintf "%s|slots=%d|seed=%d|load=%h|mmpp=%d,%h,%h|ref=%d,%d|k=%d" tag
    e.slots e.seed e.load e.mmpp.Scenario.sources e.mmpp.Scenario.p_on_to_off
    e.mmpp.Scenario.p_off_to_on reference.k reference.speedup e.k

let point_workload ~base ~model ~axis ~x =
  let reference = base in
  let e = effective base axis x in
  fst (setup ~reference model e)

let materialize_trace ~base ~model ~axis ~x =
  let workload = point_workload ~base ~model ~axis ~x in
  Trace.Compact.of_workload workload ~slots:(effective base axis x).slots

(* Budget guard: a materialized trace costs ~3 words per arrival plus one
   per slot; past a few million arrivals (paper-scale runs) the cache would
   dominate memory for a marginal win, so callers fall back to live
   generation. *)
let default_max_cached_arrivals = 4_000_000

let trace_worth_caching ?(max_arrivals = default_max_cached_arrivals) ~base
    ~model ~axis ~x () =
  max_arrivals > 0
  &&
  let e = effective base axis x in
  match Workload.mean_rate (point_workload ~base ~model ~axis ~x) with
  | Some rate -> rate *. float_of_int e.slots <= float_of_int max_arrivals
  | None -> false

let policy_names model base =
  let _, instances = setup model base in
  match instances with
  | _opt :: algs -> List.map (fun (i : Instance.t) -> i.Instance.name) algs
  | [] -> []

let run_point ?events ?spans ?trace ~base ~model ~axis ~x () =
  let reference = base in
  let base = apply_axis base axis x in
  let live_workload, instances = setup ?events ~reference model base in
  let workload =
    match trace with
    | None -> live_workload
    | Some trace ->
      if Trace.Compact.slots trace < base.slots then
        invalid_arg "Sweep.run_point: trace shorter than the run";
      Trace.Compact.replay trace
  in
  let params =
    {
      Experiment.slots = base.slots;
      flush_every = base.flush_every;
      check_every = None;
    }
  in
  let run () = Experiment.run ~params ~workload instances in
  (match spans with
  | None -> run ()
  | Some spans ->
    Smbm_obs.Span.with_span spans (Printf.sprintf "point/x=%d" x) run);
  match instances with
  | opt :: algs -> Experiment.ratios ~objective:(objective model) ~opt ~algs
  | [] -> []

type detail = {
  ratio : float;
  jain : float;
  starved : int;
  mean_latency : float;
  p99_latency : float;
  drop_rate : float;
}

let run_point_detailed ~base ~model ~axis ~x =
  let reference = base in
  let base = apply_axis base axis x in
  let workload, instances = setup ~reference model base in
  let params =
    {
      Experiment.slots = base.slots;
      flush_every = base.flush_every;
      check_every = None;
    }
  in
  Experiment.run ~params ~workload instances;
  match instances with
  | opt :: algs ->
    List.map
      (fun (alg : Instance.t) ->
        let m = alg.metrics in
        let jain, starved =
          match alg.ports with
          | Some ports ->
            ( Port_stats.jain_index ports ~objective:(objective model),
              Port_stats.starved_ports ports )
          | None -> (1.0, 0)
        in
        let drop_rate =
          if Metrics.arrivals m = 0 then 0.0
          else float_of_int (Metrics.dropped m) /. float_of_int (Metrics.arrivals m)
        in
        ( alg.name,
          {
            ratio = Experiment.ratio ~objective:(objective model) ~opt ~alg;
            jain;
            starved;
            mean_latency =
              Smbm_prelude.Running_stats.mean (Metrics.latency_stats m);
            p99_latency =
              Smbm_prelude.Histogram.quantile (Metrics.latency_hist m) 0.99;
            drop_rate;
          } ))
      algs
  | [] -> []

type replicated = {
  mean : float;
  stddev : float;
  runs : int;
  dropped_non_finite : int;
}

let aggregate_replicates per_seed =
  match per_seed with
  | [] -> []
  | first :: _ ->
    List.map
      (fun (name, _) ->
        let stats = Smbm_prelude.Running_stats.create () in
        let dropped = ref 0 in
        List.iter
          (fun ratios ->
            match List.assoc_opt name ratios with
            | Some r when Float.is_finite r ->
              Smbm_prelude.Running_stats.add stats r
            | Some _ -> incr dropped
            | None -> ())
          per_seed;
        ( name,
          {
            mean = Smbm_prelude.Running_stats.mean stats;
            stddev = Smbm_prelude.Running_stats.stddev stats;
            runs = Smbm_prelude.Running_stats.count stats;
            dropped_non_finite = !dropped;
          } ))
      first

let run_point_replicated ~base ~model ~axis ~x ~seeds =
  if seeds = [] then invalid_arg "Sweep.run_point_replicated: no seeds";
  aggregate_replicates
    (List.map
       (fun seed -> run_point ~base:{ base with seed } ~model ~axis ~x ())
       seeds)

(* Panel-level trace cache: a key is materialized once and replayed by
   every later point with the same key (all of a B or C axis).  Keys used
   once — every K-axis point — are never materialized: generating into a
   trace first would only add a copy. *)
let run_panel ?(base = default_base) ?events ?spans ?xs
    ?(max_cached_arrivals = default_max_cached_arrivals) number =
  let panel = panel number in
  let panel = match xs with Some xs -> { panel with xs } | None -> panel in
  let model = panel.model and axis = panel.axis in
  let key x = trace_key ~base ~model ~axis ~x in
  let uses = Hashtbl.create 8 in
  List.iter
    (fun x ->
      let k = key x in
      Hashtbl.replace uses k (1 + Option.value ~default:0 (Hashtbl.find_opt uses k)))
    panel.xs;
  let cache = Hashtbl.create 8 in
  let trace_for x =
    let k = key x in
    match Hashtbl.find_opt cache k with
    | Some trace -> Some trace
    | None ->
      if
        Option.value ~default:0 (Hashtbl.find_opt uses k) >= 2
        && trace_worth_caching ~max_arrivals:max_cached_arrivals ~base ~model
             ~axis ~x ()
      then begin
        let trace = materialize_trace ~base ~model ~axis ~x in
        Hashtbl.replace cache k trace;
        Some trace
      end
      else None
  in
  let run_points () =
    List.map
      (fun x ->
        {
          x;
          ratios =
            run_point ?events ?spans ?trace:(trace_for x) ~base ~model ~axis
              ~x ();
        })
      panel.xs
  in
  let points =
    match spans with
    | None -> run_points ()
    | Some spans ->
      Smbm_obs.Span.with_span spans
        (Printf.sprintf "panel/%d" panel.number)
        run_points
  in
  { panel; points }
