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

(* Effective parameters at sweep value [x]. *)
let apply_axis base axis x =
  match axis with
  | K -> { base with k = x }
  | B -> { base with buffer = x }
  | C -> { base with speedup = x }

let params { slots; flush_every; _ } =
  { Experiment.slots; flush_every; check_every = None }

(* The paper's configuration of a Fig. 5 row: n = k ports, the contiguous
   works 1..k of the processing model, values 1..k of the value models. *)
let to_model model b =
  let value () =
    Value_config.make ~ports:b.k ~max_value:b.k ~buffer:b.buffer
      ~speedup:b.speedup ()
  in
  match model with
  | Proc ->
    Model.Proc
      (Proc_config.contiguous ~k:b.k ~buffer:b.buffer ~speedup:b.speedup ())
  | Value_uniform -> Model.Value_uniform (value ())
  | Value_port -> Model.Value_port (value ())

let objective model = Model.objective (to_model model default_base)

(* [reference] carries the sweep's base parameters: the workload intensity is
   derived from it, not from the swept configuration, so the absolute traffic
   stays constant along the sweep (the paper's setup: growing k or C means
   growing capacity under the same offered traffic).  [m] is [base]'s
   switch. *)
let workload ~reference model base m =
  Model.workload ~mmpp:base.mmpp ~reference:(to_model model reference) m
    ~load:base.load ~seed:base.seed

(* A ratio point reads two counters per instance, so its instances record
   no distributions. *)
let setup ?reference ?events model base =
  let m = to_model model base in
  ( workload ~reference:(Option.value reference ~default:base) model base m,
    Model.instances ?events ~distributions:false m )

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

let trace_key ~base ~model ~axis ~x =
  let e = apply_axis base axis x in
  Printf.sprintf "%s|slots=%d|seed=%d|load=%h|mmpp=%d,%h,%h|ref=%d,%d|k=%d"
    (Model.name (to_model model e))
    e.slots e.seed e.load e.mmpp.Scenario.sources e.mmpp.Scenario.p_on_to_off
    e.mmpp.Scenario.p_off_to_on base.k base.speedup e.k

let point_workload ~base ~model ~axis ~x =
  let e = apply_axis base axis x in
  workload ~reference:base model e (to_model model e)

let materialize_trace ~base ~model ~axis ~x =
  let workload = point_workload ~base ~model ~axis ~x in
  Trace.Compact.of_workload workload ~slots:(apply_axis base axis x).slots

(* Budget guard: a materialized trace costs ~3 words per arrival plus one
   per slot; past a few million arrivals (paper-scale runs) the cache would
   dominate memory for a marginal win, so callers fall back to live
   generation. *)
let max_cached_arrivals = 4_000_000

let trace_worth_caching ~base ~model ~axis ~x =
  let e = apply_axis base axis x in
  match Workload.mean_rate (point_workload ~base ~model ~axis ~x) with
  | Some rate -> rate *. float_of_int e.slots <= float_of_int max_cached_arrivals
  | None -> false

(* One point's set-up and run: its instances, OPT reference first, after
   [Experiment.run] over the live workload or the replayed [trace].
   [distributions] as in [Model.instances]: off for ratios, on for
   [run_point_detailed]. *)
let run ?events ?trace ~distributions ~base ~model ~axis ~x () =
  let e = apply_axis base axis x in
  let m = to_model model e in
  let workload =
    match trace with
    | None -> workload ~reference:base model e m
    | Some trace ->
      if Trace.Compact.slots trace < e.slots then
        invalid_arg "Sweep.run_point: trace shorter than the run";
      Trace.Compact.replay trace
  in
  let instances = Model.instances ?events ~distributions m in
  Experiment.run ~params:(params e) ~workload instances;
  instances

let run_point ?events ?trace ~base ~model ~axis ~x () =
  match run ?events ?trace ~distributions:false ~base ~model ~axis ~x () with
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

(* An instance without port tallies has no fairness to report: reading it
   as perfectly fair would turn a wiring mistake into a wrong table. *)
let details model = function
  | opt :: algs ->
    List.map
      (fun (alg : Instance.t) ->
        let m = alg.metrics in
        let jain, starved =
          match alg.ports with
          | Some ports ->
            ( Port_stats.jain_index ports ~objective:(objective model),
              Port_stats.starved_ports ports )
          | None ->
            invalid_arg
              ("Sweep.details: " ^ alg.name
             ^ " records no per-port transmissions")
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

let run_point_detailed ~base ~model ~axis ~x =
  details model (run ~distributions:true ~base ~model ~axis ~x ())

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
