(* The four workloads.  Each is a fixed unit of work, repeated by the driver
   for as long as a run lasts; the unit's size never depends on the run
   length, so its digest at a given seed is a constant.

   Every workload calls the program through its defaults: no environment
   variable, no backend or recorder choice.  The untraced unit calls
   exactly what a user would call ([Par_sweep.run_panels],
   [Experiment.run], [Daemon.run]); the traced unit re-assembles the same
   calls from the same public pieces with {!Layers} wrapped around them. *)

open Smbm_sim
open Smbm_serve
module Scenario = Smbm_traffic.Scenario
module Compact = Smbm_traffic.Trace.Compact
module Workload = Smbm_traffic.Workload
module Pool = Smbm_par.Pool

type sizes = {
  fig5_slots : int;
  fig5_sources : int;
  points_slots : int;
  live_slots : int;
  replay_slots : int;
}

let full =
  {
    fig5_slots = 2_500;
    fig5_sources = 100;
    points_slots = 20_000;
    live_slots = 200_000;
    replay_slots = 60_000;
  }

(* The warm-up and [--smoke] shape: every workload, a few percent of the
   work. *)
let smoke =
  {
    fig5_slots = 100;
    fig5_sources = 20;
    points_slots = 1_000;
    live_slots = 10_000;
    replay_slots = 4_000;
  }

type gc = {
  minor_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
}

(* What the traced serve unit reads back from the daemon's own stage
   histograms: metric name -> (samples, summed microseconds). *)
type stages = (string * (int * float)) list

type result = {
  wall : float;  (** the timed phase, seconds *)
  slots : int;  (** simulated slots; point-slots for the sweeps *)
  attempted : int;  (** points for the sweeps, slots for serve *)
  failed : int;
  digest : string;
  gc : gc;
  report : Daemon.report option;
  pool : Pool.timing option;
  stages : stages;
}

type t = {
  fresh_setup : bool;  (** [run] consumes what [setup] built *)
  setup_records : bool;  (** set-up is recording the traffic it replays *)
  setup : unit -> unit;
  run : Layers.t option -> result;
}

let names = [ "fig5-ci"; "paper-points"; "serve-live"; "serve-replay" ]

(* ----- shared pieces ----- *)

(* The timed phase, with allocation counted over every domain: OCaml 5's
   [Gc.quick_stat] folds in the counters of domains that have terminated,
   and both the pool and the daemon's ingest domain are joined before the
   timed call returns.  The forced minor collections sit outside the clock
   and flush the calling domain's young counts into the totals. *)
let timed f =
  Gc.minor ();
  let g0 = Gc.quick_stat () in
  let t0 = Layers.now_ns () in
  let r = f () in
  let wall = float_of_int (Layers.now_ns () - t0) *. 1e-9 in
  Gc.minor ();
  let g1 = Gc.quick_stat () in
  let gc =
    {
      minor_words = g1.minor_words -. g0.minor_words;
      promoted_words = g1.promoted_words -. g0.promoted_words;
      minor_collections = g1.minor_collections - g0.minor_collections - 1;
      major_collections = g1.major_collections - g0.major_collections;
    }
  in
  (r, wall, gc)

let hex s = Digest.to_hex (Digest.string s)
let bad_ratio r = (not (Float.is_finite r)) || r < 1.0

let add_ratios buf tag ratios =
  List.iter (fun (name, r) -> Printf.bprintf buf "%s %s %h\n" tag name r) ratios

let params (base : Sweep.base) =
  {
    Experiment.slots = base.slots;
    flush_every = base.flush_every;
    check_every = None;
  }

let model_tag = function
  | Sweep.Proc -> "proc"
  | Sweep.Value_uniform -> "value_uniform"
  | Sweep.Value_port -> "value_port"

(* One sweep point over an instance list from [Sweep.setup]: run, audit,
   and return the ratios and whether every output check held — finite
   ratios >= 1, one arrival count across the instances (they saw the same
   traffic), passing invariant checks. *)
let run_point ~model ~(base : Sweep.base) ~workload insts =
  match
    Experiment.run ~params:(params base) ~workload insts;
    List.iter (fun (i : Instance.t) -> i.check ()) insts
  with
  | exception Invalid_argument _ -> ([], false)
  | () -> (
    match insts with
    | [] -> ([], false)
    | opt :: algs ->
      let ratios =
        Experiment.ratios ~objective:(Sweep.objective model) ~opt ~algs
      in
      let arrivals = Metrics.arrivals opt.metrics in
      let same =
        List.for_all
          (fun (i : Instance.t) -> Metrics.arrivals i.metrics = arrivals)
          algs
      in
      (ratios, same && not (List.exists (fun (_, r) -> bad_ratio r) ratios)))

(* ----- fig5-ci: the nine panels through the parallel sweep ----- *)

let jobs = 2
let panels = [ 1; 2; 3; 4; 5; 6; 7; 8; 9 ]

let apply_axis (base : Sweep.base) axis x =
  match axis with
  | Sweep.K -> { base with k = x }
  | Sweep.B -> { base with buffer = x }
  | Sweep.C -> { base with speedup = x }

let fig5 sizes ~seed =
  let base =
    {
      Sweep.default_base with
      slots = sizes.fig5_slots;
      mmpp = { Scenario.default_mmpp with sources = sizes.fig5_sources };
      seed;
    }
  in
  let tasks =
    List.concat_map
      (fun n ->
        let p = Sweep.panel n in
        List.map (fun x -> (p, x)) p.xs)
      panels
  in
  let points = List.length tasks in
  (* [Smbm_prelude.Harmonic.h] memoises into a global table that grows on
     first use, unsynchronised: NHDT admissions on two domains growing it
     at once can raise [Invalid_argument] (or read a torn entry) inside
     the pool.  Growing it here, before any domain starts, to the largest
     port count a point uses keeps that library race out of the
     measurement; see README.md. *)
  let max_k =
    List.fold_left
      (fun acc ((p : Sweep.panel), x) -> if p.axis = Sweep.K then max acc x else acc)
      base.k tasks
  in
  ignore (Smbm_prelude.Harmonic.h max_k : float);
  (* Keys shared by two or more points are recorded once and replayed, as
     [Par_sweep.run_panels] does: one trace per model at this scale. *)
  let shared_keys () =
    let counts = Hashtbl.create 16 in
    List.iter
      (fun ((p : Sweep.panel), x) ->
        let key = Sweep.trace_key ~base ~model:p.model ~axis:p.axis ~x in
        Hashtbl.replace counts key
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts key)))
      tasks;
    counts
  in
  let materialize counts =
    let traces = Hashtbl.create 4 in
    List.iter
      (fun ((p : Sweep.panel), x) ->
        let key = Sweep.trace_key ~base ~model:p.model ~axis:p.axis ~x in
        if Hashtbl.find counts key >= 2 && not (Hashtbl.mem traces key) then
          Hashtbl.replace traces key
            (Sweep.materialize_trace ~base ~model:p.model ~axis:p.axis ~x))
      tasks;
    traces
  in
  (* Set-up of the figure: its shared traces and every point's instances. *)
  let setup () =
    ignore (materialize (shared_keys ()) : (string, Compact.t) Hashtbl.t);
    List.iter
      (fun ((p : Sweep.panel), x) ->
        ignore
          (Sweep.setup ~reference:base p.model (apply_axis base p.axis x)
            : Workload.t * Instance.t list))
      tasks
  in
  let finish ~wall ~gc ~pool per_point =
    let buf = Buffer.create 16_384 in
    let failed = ref 0 in
    List.iter2
      (fun ((p : Sweep.panel), x) (ratios, ok) ->
        if not ok then incr failed;
        add_ratios buf (Printf.sprintf "%d %d" p.number x) ratios)
      tasks per_point;
    {
      wall;
      slots = points * base.slots;
      attempted = points;
      failed = !failed;
      digest = hex (Buffer.contents buf);
      gc;
      report = None;
      pool;
      stages = [];
    }
  in
  let untraced () =
    let timing = ref None in
    let outcome, wall, gc =
      timed (fun () ->
          try
            Some
              (Smbm_par.Par_sweep.run_panels ~jobs
                 ~on_timing:(fun t -> timing := Some t)
                 ~base panels)
          with Invalid_argument _ -> None)
    in
    let per_point =
      match outcome with
      | None -> List.map (fun _ -> ([], false)) tasks
      | Some outcomes ->
        List.concat_map
          (fun (o : Sweep.outcome) ->
            List.map
              (fun (pt : Sweep.point) ->
                ( pt.ratios,
                  not (List.exists (fun (_, r) -> bad_ratio r) pt.ratios) ))
              o.points)
          outcomes
    in
    finish ~wall ~gc ~pool:!timing per_point
  in
  let traced (lt : Layers.t) =
    let results, wall, gc =
      timed (fun () ->
          let t0 = Layers.now_ns () in
          let traces = materialize (shared_keys ()) in
          lt.materialize_ns <- lt.materialize_ns + (Layers.now_ns () - t0);
          Pool.with_pool ~jobs (fun pool ->
              Pool.map pool
                (fun ((p : Sweep.panel), x) ->
                  let mine = Layers.create () in
                  let t0 = Layers.now_ns () in
                  let e = apply_axis base p.axis x in
                  let live, insts = Sweep.setup ~reference:base p.model e in
                  let workload =
                    match
                      Hashtbl.find_opt traces
                        (Sweep.trace_key ~base ~model:p.model ~axis:p.axis ~x)
                    with
                    | Some trace -> Compact.replay trace
                    | None -> live
                  in
                  let insts =
                    Layers.instances mine ~model:(model_tag p.model) insts
                  in
                  let point =
                    run_point ~model:p.model ~base:e
                      ~workload:(Layers.workload mine workload)
                      insts
                  in
                  Layers.count_point mine ~slots:e.slots (List.tl insts);
                  mine.busy_ns <- Layers.now_ns () - t0;
                  (point, mine))
                tasks))
    in
    List.iter (fun (_, mine) -> Layers.merge_into lt mine) results;
    finish ~wall ~gc ~pool:None (List.map fst results)
  in
  {
    fresh_setup = false;
    setup_records = false;
    setup;
    run = (function None -> untraced () | Some lt -> traced lt);
  }

(* ----- paper-points: three base points at paper scale, live traffic ----- *)

let point_models = [ Sweep.Proc; Sweep.Value_uniform; Sweep.Value_port ]

let paper_points sizes ~seed =
  let base = { Sweep.default_base with slots = sizes.points_slots; seed } in
  let prepared = ref [] in
  let setup () =
    prepared := List.map (fun m -> (m, Sweep.setup m base)) point_models
  in
  let run traced =
    let pts = !prepared in
    prepared := [];
    let results, wall, gc =
      timed (fun () ->
          List.map
            (fun (model, (workload, insts)) ->
              match traced with
              | None -> run_point ~model ~base ~workload insts
              | Some lt ->
                let t0 = Layers.now_ns () in
                let insts = Layers.instances lt ~model:(model_tag model) insts in
                let r =
                  run_point ~model ~base ~workload:(Layers.workload lt workload)
                    insts
                in
                Layers.count_point lt ~slots:base.slots (List.tl insts);
                lt.busy_ns <- lt.busy_ns + (Layers.now_ns () - t0);
                r)
            pts)
    in
    let buf = Buffer.create 1024 in
    List.iter2
      (fun (model, (_, insts)) (ratios, _) ->
        add_ratios buf (model_tag model) ratios;
        List.iter
          (fun (i : Instance.t) ->
            Printf.bprintf buf "%s %s arrivals=%d transmitted=%d value=%d\n"
              (model_tag model) i.name (Metrics.arrivals i.metrics)
              (Metrics.transmitted i.metrics)
              (Metrics.transmitted_value i.metrics))
          insts)
      pts results;
    {
      wall;
      slots = List.length pts * base.slots;
      attempted = List.length pts;
      failed = List.length (List.filter (fun (_, ok) -> not ok) results);
      digest = hex (Buffer.contents buf);
      gc;
      report = None;
      pool = None;
      stages = [];
    }
  in
  { fresh_setup = true; setup_records = false; setup; run }

(* ----- serve: the daemon, closed loop behind its ring ----- *)

(* The sweeps' base point: k = 16 ports, B = 64, C = 1, load 2.0, 500
   sources, flushouts every 2 500 slots. *)
let default = Sweep.default_base

let proc_config =
  Smbm_core.Proc_config.contiguous ~k:default.k ~buffer:default.buffer
    ~speedup:default.speedup ()

let value_config =
  Smbm_core.Value_config.make ~ports:default.k ~max_value:default.k
    ~buffer:default.buffer ~speedup:default.speedup ()

let counters_digest (r : Daemon.report) =
  hex
    (Printf.sprintf
       "slots=%d arrivals=%d accepted=%d transmitted=%d dropped=%d flushed=%d \
        shed=%d/%d conservation=%b"
       r.slots r.arrivals r.accepted r.transmitted r.dropped r.flushed
       r.shed_slots r.shed_packets r.conservation_ok)

(* Stage histograms land in the daemon's metrics JSONL; the sink needs a
   file, kept in the working directory for the duration of one run. *)
let read_stages path =
  let ic = open_in path in
  let lines =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> In_channel.input_all ic |> String.split_on_char '\n')
  in
  List.filter_map
    (fun line ->
      match Smbm_obs.Json.parse_flat line with
      | Error _ -> None
      | Ok fields -> (
        match
          ( List.assoc_opt "metric" fields,
            List.assoc_opt "count" fields,
            List.assoc_opt "mean" fields )
        with
        | Some (Smbm_obs.Json.Str m), Some (Int n), Some (Float mean) ->
          Some (m, (n, float_of_int n *. mean))
        | _ -> None))
    lines

let serve ~model ~policy ?flush_every ~slots ~expected_arrivals ingest =
  let run (traced : Layers.t option) =
    let ingest, fill_slots = ingest () in
    let report, stages, wall, gc =
      match traced with
      | None ->
        let report, wall, gc =
          timed (fun () ->
              Daemon.run ?flush_every ~slots ~model ~policy ~ingest ())
        in
        (report, [], wall, gc)
      | Some lt ->
        let path = Printf.sprintf ".benchmark-stages-%d.jsonl" (Unix.getpid ()) in
        let sink = Smbm_obs.Sink.file path in
        let report, wall, gc =
          Fun.protect
            ~finally:(fun () -> Smbm_obs.Sink.close sink)
            (fun () ->
              timed (fun () ->
                  Daemon.run ?flush_every ~slots ~telemetry:true
                    ~metrics_sink:sink ~model ~policy
                    ~ingest:
                      (Daemon.Workload
                         (Layers.workload lt (Workload.of_fun_into fill_slots)))
                    ()))
        in
        let stages =
          Fun.protect
            ~finally:(fun () -> Sys.remove path)
            (fun () -> read_stages path)
        in
        lt.busy_ns <- lt.busy_ns + int_of_float (report.wall *. 1e9);
        lt.slots <- lt.slots + report.slots;
        (report, stages, wall, gc)
    in
    let arrivals_ok =
      match expected_arrivals () with
      | Some n -> report.arrivals = n
      | None -> true
    in
    let failed =
      if report.conservation_ok && arrivals_ok then
        report.shed_slots + max 0 (slots - report.slots)
      else slots
    in
    {
      wall;
      slots = report.slots;
      attempted = slots;
      failed;
      digest = counters_digest report;
      gc;
      report = Some report;
      pool = None;
      stages;
    }
  in
  run

let serve_live sizes ~seed =
  let bank = ref None in
  let setup () =
    bank :=
      Some (Mmpp_bank.create (Model.Proc proc_config) ~load:default.load ~seed ())
  in
  let ingest () =
    match !bank with
    | None -> invalid_arg "serve-live: no bank"
    | Some b ->
      bank := None;
      (Daemon.Bank b, fun batch _ -> Mmpp_bank.fill b batch)
  in
  let run =
    serve ~model:(Model.Proc proc_config) ~policy:"LWD"
      ?flush_every:default.flush_every ~slots:sizes.live_slots
      ~expected_arrivals:(fun () -> None)
      ingest
  in
  { fresh_setup = true; setup_records = false; setup; run }

let serve_replay sizes ~seed =
  let trace = ref None in
  let setup () =
    trace := None;
    trace :=
      Some
        (Compact.of_workload
           (Scenario.value_uniform_workload ~config:value_config
              ~load:default.load ~seed ())
           ~slots:sizes.replay_slots)
  in
  let current () =
    match !trace with Some c -> c | None -> invalid_arg "serve-replay: no trace"
  in
  let ingest () =
    let c = current () in
    let replay = Compact.replay c in
    (Daemon.Trace c, fun batch _ -> Workload.next_into replay batch)
  in
  let run =
    serve ~model:(Model.Value_uniform value_config) ~policy:"MRD"
      ~slots:sizes.replay_slots
      ~expected_arrivals:(fun () -> Some (Compact.arrivals (current ())))
      ingest
  in
  { fresh_setup = false; setup_records = true; setup; run }

let make name sizes ~seed =
  match name with
  | "fig5-ci" -> fig5 sizes ~seed
  | "paper-points" -> paper_points sizes ~seed
  | "serve-live" -> serve_live sizes ~seed
  | "serve-replay" -> serve_replay sizes ~seed
  | other -> invalid_arg ("unknown workload " ^ other)
