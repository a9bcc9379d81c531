(* Command-line front end: reproduce any experiment of the paper at any
   scale.

   smbm_cli policies                list the available policies
   smbm_cli compare   [options]     all policies in lockstep (ratios,
                                    --detail fairness, --replications)
   smbm_cli simulate  [options]     one policy, detailed metrics
                                    (--heavy-tail, --timeseries FILE)
   smbm_cli sweep     [options]     arbitrary k/B/C sweep (--xs, --csv)
   smbm_cli figure N  [options]     regenerate a Fig. 5 panel (1-9)
   smbm_cli lowerbound THM          run a theorem's adversarial construction
   smbm_cli trace record|stats F    record / inspect arrival traces
   smbm_cli trace-validate F        structural audit of an event trace
   smbm_cli trace-replay F          reconstruct state + metrics from events
   smbm_cli trace-diff F [G]        first divergence between two sources
   smbm_cli trace-explain F [G]     charge a throughput gap to loss events
   smbm_cli certify   [options]     Theorem 7's mapping routine, live
   smbm_cli serve     [options]     online switch daemon (ring ingest,
                                    live reconfiguration, soak gates)
   smbm_cli loadgen   [options]     MMPP load generator (sustained
                                    slots/sec, tail latency)
   smbm_cli bench-diff BASE CUR     gate benchmark JSONL vs a baseline *)

open Cmdliner
open Smbm_core
open Smbm_sim

(* ----- shared options ----- *)

type common = {
  k : int;
  buffer : int;
  speedup : int;
  load : float;
  sources : int;
  slots : int;
  flush : int;
  seed : int;
  jobs : int;
}

let jobs_term =
  Arg.(
    value
    & opt int (-1)
    & info [ "j"; "jobs" ] ~docv:"N"
        ~env:(Cmd.Env.info "SMBM_JOBS")
        ~doc:
          "Worker domains for parallel commands ($(b,figure), $(b,sweep), \
           $(b,compare --replications), $(b,lowerbound all)).  0 runs \
           inline; default: $(b,SMBM_JOBS) or the number of cores.  Results \
           are bit-identical for every value.")

let jobs_of jobs = if jobs >= 0 then jobs else Smbm_par.Pool.default_jobs ()

let common_term =
  let open Term in
  let k =
    Arg.(value & opt int 16 & info [ "k" ] ~docv:"K" ~doc:"Maximum work/value (also the number of ports).")
  in
  let buffer =
    Arg.(value & opt int 64 & info [ "b"; "buffer" ] ~docv:"B" ~doc:"Shared buffer size in packets.")
  in
  let speedup =
    Arg.(value & opt int 1 & info [ "c"; "speedup" ] ~docv:"C" ~doc:"Processing cycles (resp. transmissions) per queue per slot.")
  in
  (* The traffic constructors reject a negative or non-finite load; refusing
     it here makes it a usage error rather than an internal one. *)
  let load_conv =
    let parse s =
      match float_of_string_opt s with
      | Some x when Float.is_finite x && x >= 0.0 -> Ok x
      | Some _ -> Error (`Msg (Printf.sprintf "%s: expected a finite load >= 0" s))
      | None -> Error (`Msg (Printf.sprintf "%s: not a number" s))
    in
    Arg.conv (parse, Format.pp_print_float)
  in
  let load =
    Arg.(value & opt load_conv 2.0 & info [ "load" ] ~docv:"RHO" ~doc:"Normalized offered load (1.0 saturates the switch on average); finite and non-negative.")
  in
  let sources =
    Arg.(value & opt int 500 & info [ "sources" ] ~docv:"N" ~doc:"Number of interleaved MMPP sources.")
  in
  let slots =
    Arg.(value & opt int 200_000 & info [ "slots" ] ~docv:"T" ~doc:"Simulation length in time slots.")
  in
  let flush =
    Arg.(value & opt int 10_000 & info [ "flush-every" ] ~docv:"F" ~doc:"Periodic flushout interval in slots (0 disables).")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed.") in
  let make k buffer speedup load sources slots flush seed jobs =
    { k; buffer; speedup; load; sources; slots; flush; seed; jobs }
  in
  const make $ k $ buffer $ speedup $ load $ sources $ slots $ flush $ seed
  $ jobs_term

let model_term =
  let models =
    [ ("proc", Sweep.Proc); ("value-uniform", Sweep.Value_uniform); ("value-port", Sweep.Value_port) ]
  in
  Arg.(
    value
    & opt (enum models) Sweep.Proc
    & info [ "model" ] ~docv:"MODEL"
        ~doc:"Switch model: $(b,proc) (heterogeneous processing), $(b,value-uniform) or $(b,value-port).")

let base_of c =
  {
    Sweep.k = c.k;
    buffer = c.buffer;
    speedup = c.speedup;
    load = c.load;
    mmpp = { Smbm_traffic.Scenario.default_mmpp with sources = c.sources };
    slots = c.slots;
    flush_every = (if c.flush > 0 then Some c.flush else None);
    seed = c.seed;
  }

(* ----- observability options ----- *)

let trace_arg ~doc =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE" ~env:(Cmd.Env.info "SMBM_TRACE") ~doc)

let trace_term =
  trace_arg
    ~doc:
      "Write per-slot switch events (arrival, accept, push-out, drop, \
       transmit, slot-end) as JSONL to $(docv).  Deterministic: \
       byte-identical for every $(b,--jobs) value, and recording does not \
       change any result.  Validate with $(b,trace-validate)."

let trace_cap_term =
  Arg.(
    value
    & opt int Smbm_par.Par_sweep.default_trace_cap
    & info [ "trace-cap" ] ~docv:"N"
        ~doc:
          "Event ring-buffer capacity (per sweep point for $(b,figure)); \
           the oldest events are evicted beyond it, keeping memory bounded \
           on long runs.")

let metrics_out_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Write the final aggregate counters and histograms as labeled \
           JSONL metric lines to $(docv).")

let progress_term =
  Arg.(
    value & flag
    & info [ "progress" ] ~doc:"Print a progress line to stderr.")

let model_name = function
  | Sweep.Proc -> "proc"
  | Sweep.Value_uniform -> "value-uniform"
  | Sweep.Value_port -> "value-port"

let write_events path events =
  let sink = Smbm_obs.Sink.file path in
  List.iter (Smbm_obs.Sink.event sink) events;
  Smbm_obs.Sink.close sink

let has_suffix ~suffix s =
  let ls = String.length suffix and l = String.length s in
  l >= ls && String.sub s (l - ls) ls = suffix

(* ----- policies ----- *)

let policies_cmd =
  let run () =
    let proc = Proc_config.contiguous ~k:4 ~buffer:16 () in
    let value = Value_config.make ~ports:4 ~max_value:4 ~buffer:16 () in
    print_endline "Processing model (Section III):";
    List.iter
      (fun (p : Proc_policy.t) ->
        Printf.printf "  %-6s %s\n" p.name
          (if p.push_out then "push-out" else "non-push-out"))
      (Policies.proc proc);
    print_endline "Value model (Section IV):";
    List.iter
      (fun (p : Value_policy.t) ->
        Printf.printf "  %-6s %s\n" p.name
          (if p.push_out then "push-out" else "non-push-out"))
      (Policies.value_port ~port_value:[| 1; 2; 3; 4 |] value)
  in
  Cmd.v
    (Cmd.info "policies" ~doc:"List the buffer-management policies of both models.")
    Term.(const run $ const ())

(* ----- compare ----- *)

let run_compare common model replications detail =
  let base = base_of common in
  let objective =
    match Sweep.objective model with `Packets -> "packets" | `Value -> "value"
  in
  if detail then begin
    let details =
      Sweep.run_point_detailed ~base ~model ~axis:Sweep.K ~x:common.k
    in
    let rows =
      List.map
        (fun (name, (d : Sweep.detail)) ->
          [
            name;
            Smbm_report.Table.float_cell d.ratio;
            Smbm_report.Table.float_cell d.jain;
            string_of_int d.starved;
            Smbm_report.Table.float_cell ~digits:1 d.mean_latency;
            Smbm_report.Table.float_cell ~digits:1 d.p99_latency;
            Smbm_report.Table.float_cell ~digits:4 d.drop_rate;
          ])
        details
    in
    print_string
      (Smbm_report.Table.render
         ~headers:
           [
             "policy"; "ratio (" ^ objective ^ ")"; "jain"; "starved";
             "lat-mean"; "lat-p99"; "drop";
           ]
         ~rows ())
  end
  else if replications > 1 then begin
    let seeds = List.init replications (fun i -> common.seed + i) in
    let reps =
      Smbm_par.Par_sweep.run_point_replicated ~jobs:(jobs_of common.jobs)
        ~base ~model ~axis:Sweep.K ~x:common.k ~seeds ()
    in
    let rows =
      List.map
        (fun (name, (r : Sweep.replicated)) ->
          [
            name;
            Smbm_report.Table.float_cell r.mean;
            Smbm_report.Table.float_cell r.stddev;
            string_of_int r.runs;
            string_of_int r.dropped_non_finite;
          ])
        reps
    in
    print_string
      (Smbm_report.Table.render
         ~headers:
           [
             "policy"; "mean ratio (" ^ objective ^ ")"; "stddev"; "runs";
             "dropped";
           ]
         ~rows ())
  end
  else begin
    let ratios = Sweep.run_point ~base ~model ~axis:Sweep.K ~x:common.k () in
    let rows =
      List.map (fun (name, r) -> [ name; Smbm_report.Table.float_cell r ]) ratios
    in
    print_string
      (Smbm_report.Table.render
         ~headers:[ "policy"; "ratio (" ^ objective ^ ")" ]
         ~rows ())
  end

let compare_cmd =
  let replications =
    Arg.(
      value & opt int 1
      & info [ "replications" ] ~docv:"N"
          ~doc:"Repeat over N consecutive seeds and report mean and stddev.")
  in
  let detail =
    Arg.(
      value & flag
      & info [ "detail" ]
          ~doc:"Also report Jain fairness, starved ports, latency and drop rate.")
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Run every policy of a model plus the OPT reference in lockstep over one MMPP workload and print the empirical competitive ratios.")
    Term.(const run_compare $ common_term $ model_term $ replications $ detail)

(* ----- trace ----- *)

let run_trace common model action path =
  let mmpp = { Smbm_traffic.Scenario.default_mmpp with sources = common.sources } in
  match action with
  | "record" ->
    let workload =
      match model with
      | Sweep.Proc ->
        let config =
          Proc_config.contiguous ~k:common.k ~buffer:common.buffer
            ~speedup:common.speedup ()
        in
        Smbm_traffic.Scenario.proc_workload ~mmpp ~config ~load:common.load
          ~seed:common.seed ()
      | Sweep.Value_uniform | Sweep.Value_port ->
        let config =
          Value_config.make ~ports:common.k ~max_value:common.k
            ~buffer:common.buffer ~speedup:common.speedup ()
        in
        if model = Sweep.Value_port then
          Smbm_traffic.Scenario.value_port_workload ~mmpp ~config
            ~load:common.load ~seed:common.seed ()
        else
          Smbm_traffic.Scenario.value_uniform_workload ~mmpp ~config
            ~load:common.load ~seed:common.seed ()
    in
    let trace = Smbm_traffic.Trace.record workload ~slots:common.slots in
    let oc = open_out path in
    Smbm_traffic.Trace.save trace oc;
    close_out oc;
    Printf.printf "recorded %d slots (%d arrivals) to %s\n"
      (Smbm_traffic.Trace.slots trace)
      (Smbm_traffic.Trace.arrivals trace)
      path
  | "stats" ->
    let ic = open_in path in
    let trace = Smbm_traffic.Trace.load ic in
    close_in ic;
    let stats = Smbm_traffic.Trace_stats.analyze trace in
    Format.printf "%a@." Smbm_traffic.Trace_stats.pp stats;
    let config =
      Proc_config.contiguous ~k:common.k ~buffer:common.buffer
        ~speedup:common.speedup ()
    in
    (match Smbm_traffic.Trace_stats.offered_load config trace with
    | load -> Format.printf "offered load vs k=%d switch: %.3f@." common.k load
    | exception Invalid_argument _ -> ());
    Format.printf "per-port packets:@.";
    List.iter
      (fun (port, n) -> Format.printf "  port %d: %d@." port n)
      stats.Smbm_traffic.Trace_stats.per_port
  | other -> failwith (Printf.sprintf "unknown trace action %S" other)

let trace_cmd =
  let action =
    Arg.(
      required
      & pos 0 (some (enum [ ("record", "record"); ("stats", "stats") ])) None
      & info [] ~docv:"ACTION" ~doc:"$(b,record) a workload or show $(b,stats) of a trace file.")
  in
  let path =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"FILE" ~doc:"Trace file.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Record MMPP workloads to trace files and inspect their statistics.")
    Term.(const run_trace $ common_term $ model_term $ action $ path)

(* ----- simulate ----- *)

let run_simulate common model heavy_tail timeseries trace trace_cap
    metrics_out progress policy_name =
  let base = base_of common in
  let mmpp = { Smbm_traffic.Scenario.default_mmpp with sources = common.sources } in
  let params =
    {
      Experiment.slots = common.slots;
      flush_every = (if common.flush > 0 then Some common.flush else None);
      check_every = None;
    }
  in
  let events =
    match trace with
    | None -> None
    | Some _ -> Some (Smbm_obs.Flight.create ~cap:trace_cap ())
  in
  let inst, workload =
    match model with
    | Sweep.Proc ->
      let config =
        Proc_config.contiguous ~k:common.k ~buffer:common.buffer
          ~speedup:common.speedup ()
      in
      let policy =
        match Policies.proc_find config policy_name with
        | Some p -> p
        | None -> failwith ("unknown processing policy: " ^ policy_name)
      in
      let workload =
        if heavy_tail then
          Smbm_traffic.Scenario.proc_heavy_tail_workload ~mmpp ~config
            ~load:common.load ~seed:common.seed ()
        else
          Smbm_traffic.Scenario.proc_workload ~mmpp ~config ~load:common.load
            ~seed:common.seed ()
      in
      (Proc_engine.instance ?events config policy, workload)
    | Sweep.Value_uniform | Sweep.Value_port ->
      let config =
        Value_config.make ~ports:common.k ~max_value:common.k
          ~buffer:common.buffer ~speedup:common.speedup ()
      in
      let port_value = Smbm_traffic.Scenario.port_values config in
      let policy =
        match Policies.value_find ~port_value config policy_name with
        | Some p -> p
        | None -> failwith ("unknown value policy: " ^ policy_name)
      in
      let workload =
        if model = Sweep.Value_port then
          Smbm_traffic.Scenario.value_port_workload ~mmpp ~config
            ~load:common.load ~seed:common.seed ()
        else
          Smbm_traffic.Scenario.value_uniform_workload ~mmpp ~config
            ~load:common.load ~seed:common.seed ()
      in
      (Value_engine.instance ?events config policy, workload)
  in
  let inst, series =
    match timeseries with
    | Some _ ->
      let wrapped, ts = Timeseries.attach ~every:(max 1 (common.slots / 200)) inst in
      (wrapped, Some ts)
    | None -> (inst, None)
  in
  let inst =
    if not progress then inst
    else begin
      let tick =
        Smbm_obs.Progress.make ~label:"simulate" ~total:common.slots ()
      in
      let slot = ref 0 in
      let every = max 1 (common.slots / 100) in
      let end_slot () =
        inst.Instance.end_slot ();
        incr slot;
        if !slot mod every = 0 || !slot = common.slots then tick !slot
      in
      { inst with Instance.end_slot }
    end
  in
  Experiment.run ~params ~workload [ inst ];
  (match (trace, events) with
  | Some path, Some f ->
    write_events path (Smbm_obs.Flight.dump f);
    if Smbm_obs.Flight.dropped f > 0 then
      Printf.eprintf "trace: %d events evicted (raise --trace-cap)\n"
        (Smbm_obs.Flight.dropped f);
    Printf.printf "wrote trace to %s (%d events)\n" path
      (Smbm_obs.Flight.length f)
  | _ -> ());
  (match metrics_out with
  | None -> ()
  | Some path ->
    let labels =
      [ ("policy", inst.Instance.name); ("model", model_name model) ]
    in
    let sink = Smbm_obs.Sink.file path in
    List.iter (Smbm_obs.Sink.line sink)
      (Metrics.to_jsonl ~labels inst.Instance.metrics);
    Smbm_obs.Sink.close sink;
    Printf.printf "wrote metrics to %s\n" path);
  (match timeseries, series with
  | Some path, Some ts ->
    let oc = open_out path in
    output_string oc (Timeseries.to_csv ts);
    close_out oc;
    Printf.printf "wrote time series to %s (%d samples)\n" path
      (Timeseries.samples ts)
  | _ -> ());
  ignore (base : Sweep.base);
  let m = inst.Instance.metrics in
  Format.printf "%s over %d slots:@.  %a@." inst.Instance.name common.slots
    Metrics.pp m;
  Format.printf
    "  mean occupancy %.1f / %d, latency mean %.2f / p50 %.1f / p99 %.1f \
     slots@."
    (Smbm_prelude.Running_stats.mean (Metrics.occupancy_stats m))
    common.buffer
    (Smbm_prelude.Running_stats.mean (Metrics.latency_stats m))
    (Smbm_prelude.Histogram.quantile (Metrics.latency_hist m) 0.5)
    (Smbm_prelude.Histogram.quantile (Metrics.latency_hist m) 0.99);
  match inst.Instance.ports with
  | Some ports ->
    Format.printf "  fairness: jain %.3f, starved ports %d / %d@."
      (Port_stats.jain_index ports
         ~objective:(Sweep.objective model))
      (Port_stats.starved_ports ports)
      (Port_stats.n ports)
  | None -> ()

let simulate_cmd =
  let policy =
    Arg.(
      value & opt string "LWD"
      & info [ "policy" ] ~docv:"NAME" ~doc:"Policy to simulate (see $(b,policies)).")
  in
  let heavy_tail =
    Arg.(
      value & flag
      & info [ "heavy-tail" ]
          ~doc:"Pareto-batch bursts instead of Poisson emissions (processing model only).")
  in
  let timeseries =
    Arg.(
      value & opt (some string) None
      & info [ "timeseries" ] ~docv:"FILE"
          ~doc:"Record occupancy/throughput/drop-rate samples to a CSV file.")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run a single policy and print detailed metrics.")
    Term.(
      const run_simulate $ common_term $ model_term $ heavy_tail $ timeseries
      $ trace_term $ trace_cap_term $ metrics_out_term $ progress_term
      $ policy)

(* ----- figure ----- *)

let run_figure common panel xs csv trace trace_cap metrics_out progress =
  let base = base_of common in
  let xs = match xs with [] -> None | l -> Some l in
  let total =
    match xs with
    | Some l -> List.length l
    | None -> List.length (Sweep.panel panel).Sweep.xs
  in
  let on_tick =
    if progress then
      Some (Smbm_obs.Progress.make ~label:"figure" ~total ())
    else None
  in
  let outcome =
    match trace with
    | None ->
      Smbm_par.Par_sweep.run_panel ?on_tick ~jobs:(jobs_of common.jobs) ~base
        ?xs panel
    | Some path ->
      let traced =
        Smbm_par.Par_sweep.run_panel_traced ?on_tick ~trace_cap
          ~jobs:(jobs_of common.jobs) ~base ?xs panel
      in
      write_events path traced.Smbm_par.Par_sweep.events;
      if traced.Smbm_par.Par_sweep.dropped_events > 0 then
        Printf.eprintf "trace: %d events evicted (raise --trace-cap)\n"
          traced.Smbm_par.Par_sweep.dropped_events;
      Printf.printf "wrote trace to %s (%d events)\n" path
        (List.length traced.Smbm_par.Par_sweep.events);
      traced.Smbm_par.Par_sweep.outcome
  in
  (match metrics_out with
  | None -> ()
  | Some path ->
    (* One gauge line per (point, policy): the panel's ratio surface. *)
    let sink = Smbm_obs.Sink.file path in
    List.iter
      (fun (p : Sweep.point) ->
        List.iter
          (fun (name, r) ->
            Smbm_obs.Sink.line sink
              (Smbm_obs.Json.obj
                 [
                   ("metric", Smbm_obs.Json.Str "competitive_ratio");
                   ("type", Smbm_obs.Json.Str "gauge");
                   ("value", Smbm_obs.Json.Float r);
                   ("panel", Smbm_obs.Json.Int panel);
                   ("x", Smbm_obs.Json.Int p.Sweep.x);
                   ("policy", Smbm_obs.Json.Str name);
                 ]))
          p.Sweep.ratios)
      outcome.Sweep.points;
    Smbm_obs.Sink.close sink;
    Printf.printf "wrote metrics to %s\n" path);
  let points = outcome.Sweep.points in
  let names =
    match points with
    | p :: _ -> List.map fst p.Sweep.ratios
    | [] -> []
  in
  let axis_name =
    match outcome.Sweep.panel.Sweep.axis with
    | Sweep.K -> "k"
    | Sweep.B -> "B"
    | Sweep.C -> "C"
  in
  let headers = axis_name :: names in
  let rows =
    List.map
      (fun (p : Sweep.point) ->
        string_of_int p.x
        :: List.map (fun (_, r) -> Smbm_report.Table.float_cell r) p.ratios)
      points
  in
  Printf.printf "Fig. 5 panel %d\n" panel;
  print_string (Smbm_report.Table.render ~headers ~rows ());
  let series =
    List.map
      (fun name ->
        Smbm_report.Series.of_ints ~name
          ~points:
            (List.map
               (fun (p : Sweep.point) -> (p.x, List.assoc name p.ratios))
               points))
      names
  in
  print_string
    (Smbm_report.Ascii_plot.render
       ~title:(Printf.sprintf "competitive ratio vs %s" axis_name)
       ~x_label:axis_name ~log_x:true series);
  match csv with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    Smbm_report.Csv.write oc (headers :: rows);
    close_out oc;
    Printf.printf "wrote %s\n" path

let figure_cmd =
  let panel =
    Arg.(required & pos 0 (some int) None & info [] ~docv:"PANEL" ~doc:"Panel number, 1-9.")
  in
  let xs =
    Arg.(value & opt (list int) [] & info [ "xs" ] ~docv:"X1,X2,.." ~doc:"Override the swept values.")
  in
  let csv =
    Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc:"Also write the table as CSV.")
  in
  Cmd.v
    (Cmd.info "figure"
       ~doc:"Regenerate one of the nine panels of the paper's Fig. 5 (empirical competitive ratio vs k, B or C).")
    Term.(
      const run_figure $ common_term $ panel $ xs $ csv $ trace_term
      $ trace_cap_term $ metrics_out_term $ progress_term)

(* ----- trace-validate ----- *)

(* Structural audit of an event trace produced by --trace: every line must
   parse strictly, slots must be non-decreasing within each source stream,
   and each source's arrivals must balance its accepts plus drops.  When the
   recording ring evicted a prefix, the dump's [truncated] markers declare
   how much is missing per scope; the audit then allows each covered source
   a resolution surplus (an evicted arrival whose accept/drop survived) up
   to the declared budget, and reports which slots are unverifiable.
   [--allow-truncation] remains for legacy traces without markers. *)
let run_trace_validate allow_truncation path =
  let module E = Smbm_obs.Event in
  let per_src : (string, int * (int * int * int)) Hashtbl.t =
    (* src -> last slot, (arrivals, accepted, dropped) *)
    Hashtbl.create 16
  in
  let truncations = ref [] (* scope, evicted, oldest surviving slot *) in
  let kinds = Hashtbl.create 8 in
  let fail fmt = Printf.ksprintf (fun msg -> prerr_endline msg; exit 1) fmt in
  let on_event ~lineno (ev : E.t) =
    let name = E.kind_name ev.E.kind in
    Hashtbl.replace kinds name
      (1 + Option.value (Hashtbl.find_opt kinds name) ~default:0);
    match ev.E.kind with
    | E.Truncated { evicted } ->
      truncations := (ev.E.src, evicted, ev.E.slot) :: !truncations
    | _ ->
      let last, (arr, acc, drop) =
        Option.value
          (Hashtbl.find_opt per_src ev.E.src)
          ~default:(0, (0, 0, 0))
      in
      if ev.E.slot < last then
        fail "%s:%d: slot %d of %S goes backwards (last %d)" path lineno
          ev.E.slot ev.E.src last;
      let counts =
        match ev.E.kind with
        | E.Arrival _ -> (arr + 1, acc, drop)
        | E.Accept _ -> (arr, acc + 1, drop)
        | E.Drop _ -> (arr, acc, drop + 1)
        | E.Push_out _ | E.Transmit _ | E.Transmit_bulk _ | E.Flush _
        | E.Slot_end _ | E.Reconfig _ | E.Health _ | E.Truncated _ ->
          (arr, acc, drop)
      in
      Hashtbl.replace per_src ev.E.src (ev.E.slot, counts)
  in
  (* iter_events dispatches on the binary magic, so both encodings get the
     same audit. *)
  (match Smbm_forensics.Trace_file.iter_events path ~f:on_event with
  | Ok _ -> ()
  | Error msg -> fail "%s" msg);
  (* One budget per scope: a ring drained while it runs (serve --trace)
     can declare several losses, each with its own marker. *)
  let truncations =
    let markers = List.rev !truncations in
    let scopes =
      List.fold_left
        (fun acc (scope, _, _) ->
          if List.mem scope acc then acc else scope :: acc)
        [] markers
    in
    List.rev_map
      (fun scope ->
        List.fold_left
          (fun (_, e, o) (s, evicted, oldest) ->
            if s = scope then (scope, e + evicted, max o oldest)
            else (scope, e, o))
          (scope, 0, 0) markers)
      scopes
  in
  let sources =
    Hashtbl.fold (fun src v acc -> (src, v) :: acc) per_src []
    |> List.sort compare
  in
  (* Conservation per source.  In a stream whose oldest events were evicted,
     resolutions can outnumber arrivals (the arrival fell off the ring, its
     accept/drop survived) — never the reverse, since an arrival is always
     recorded before its resolution. *)
  let deficits =
    List.filter_map
      (fun (src, (_, (arr, acc, drop))) ->
        let deficit = acc + drop - arr in
        if deficit < 0 then
          fail
            "%s: source %S has %d arrivals but only %d resolutions — \
             impossible even under truncation (corrupted trace)"
            path src arr (acc + drop);
        if deficit = 0 then None else Some (src, deficit))
      sources
  in
  List.iter
    (fun (src, deficit) ->
      let budget =
        List.fold_left
          (fun b (scope, evicted, _) ->
            if Smbm_forensics.Trace_file.scope_covers ~scope src then
              b + evicted
            else b)
          0 truncations
      in
      if budget = 0 && not allow_truncation then
        fail
          "%s: source %S violates arrivals = accepted + dropped (missing %d \
           arrivals) with no truncation marker covering it; a truncated \
           legacy trace? (--allow-truncation)"
          path src deficit)
    deficits;
  (* The declared budgets must cover the observed imbalances. *)
  List.iter
    (fun (scope, evicted, _) ->
      let missing =
        List.fold_left
          (fun n (src, deficit) ->
            if Smbm_forensics.Trace_file.scope_covers ~scope src then
              n + deficit
            else n)
          0 deficits
      in
      if missing > evicted then
        fail
          "%s: scope %S declares %d evicted events but its sources are \
           missing %d arrival resolutions (corrupted trace)"
          path scope evicted missing)
    truncations;
  let total = Hashtbl.fold (fun _ n acc -> acc + n) kinds 0 in
  Printf.printf "%s: %d events, %d sources, all lines valid\n" path total
    (Hashtbl.length per_src);
  Hashtbl.fold (fun k n acc -> (k, n) :: acc) kinds []
  |> List.sort compare
  |> List.iter (fun (k, n) -> Printf.printf "  %-13s %d\n" k n);
  List.iter
    (fun (scope, evicted, oldest) ->
      Printf.printf
        "  truncated scope %s: %d events evicted; slots < %d unverifiable\n"
        (if scope = "" then "(root)" else scope)
        evicted oldest)
    truncations;
  List.iter
    (fun (src, deficit) ->
      Printf.printf
        "  source %s: %d resolutions without surviving arrivals (evicted \
         prefix)\n"
        src deficit)
    deficits

let trace_validate_cmd =
  let allow_truncation =
    Arg.(
      value & flag
      & info [ "allow-truncation" ]
          ~doc:
            "Skip the per-source conservation check (needed when the \
             recording ring buffer evicted events).")
  in
  let path =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:"Event trace (JSONL or binary) written by --trace.")
  in
  Cmd.v
    (Cmd.info "trace-validate"
       ~doc:
         "Check an event trace written by $(b,--trace) (JSONL or binary): \
          strict parsing, per-source slot monotonicity, and arrival \
          conservation.")
    Term.(const run_trace_validate $ allow_truncation $ path)

(* ----- trace-convert ----- *)

let run_trace_convert input output to_format =
  let module TF = Smbm_forensics.Trace_file in
  let fail fmt = Printf.ksprintf (fun msg -> prerr_endline msg; exit 1) fmt in
  let target =
    match to_format with
    | Some f -> f
    | None ->
      (* Default: flip whatever the input is. *)
      if TF.is_binary input then `Jsonl else `Binary
  in
  match TF.read_events input with
  | Error msg -> fail "%s" msg
  | Ok indexed -> (
    let events = List.map snd indexed in
    match target with
    | `Binary -> (
      match TF.write_binary output events with
      | Ok () ->
        Printf.printf "%s: wrote %d events (binary) to %s\n" input
          (List.length events) output
      | Error msg -> fail "%s" msg)
    | `Jsonl -> (
      match open_out output with
      | exception Sys_error msg -> fail "%s" msg
      | oc ->
        List.iter
          (fun e ->
            output_string oc (Smbm_obs.Event.to_json e);
            output_char oc '\n')
          events;
        close_out oc;
        Printf.printf "%s: wrote %d events (jsonl) to %s\n" input
          (List.length events) output))

let trace_convert_cmd =
  let input =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"IN" ~doc:"Input trace, JSONL or binary.")
  in
  let output =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"OUT" ~doc:"Output path.")
  in
  let to_format =
    let fmt = Arg.enum [ ("jsonl", `Jsonl); ("binary", `Binary) ] in
    Arg.(
      value
      & opt (some fmt) None
      & info [ "to" ] ~docv:"FORMAT"
          ~doc:
            "Target encoding, $(b,jsonl) or $(b,binary).  Default: the \
             opposite of the input's.")
  in
  Cmd.v
    (Cmd.info "trace-convert"
       ~doc:
         "Convert an event trace between the JSONL and binary encodings, \
          losslessly in both directions.")
    Term.(const run_trace_convert $ input $ output $ to_format)

(* ----- trace-replay / trace-diff / trace-explain ----- *)

let die fmt = Printf.ksprintf (fun msg -> prerr_endline msg; exit 1) fmt

let load_trace path =
  match Smbm_forensics.Trace_file.load path with
  | Ok t -> t
  | Error msg -> die "%s" msg

(* Two-trace commands: sources come from one file or two.  Omitted source
   names default positionally — the first (and second) source of the
   file(s) — which does the right thing for a two-policy trace. *)
let resolve_pair file_a file_b src_a src_b =
  let ta = load_trace file_a in
  let tb = match file_b with None -> ta | Some p -> load_trace p in
  let pick t n fallback =
    match n with
    | Some name -> (
      match Smbm_forensics.Trace_file.find t name with
      | Ok s -> s
      | Error msg -> die "%s" msg)
    | None -> (
      match fallback t.Smbm_forensics.Trace_file.sources with
      | Some s -> s
      | None ->
        die "%s: not enough sources (have: %s); name one with --a/--b"
          t.Smbm_forensics.Trace_file.path
          (String.concat ", " (Smbm_forensics.Trace_file.source_names t)))
  in
  let a = pick ta src_a (function s :: _ -> Some s | [] -> None) in
  let b =
    match file_b with
    | Some _ -> pick tb src_b (function s :: _ -> Some s | [] -> None)
    | None ->
      pick tb src_b (fun sources ->
          List.find_opt
            (fun (s : Smbm_forensics.Trace_file.source) ->
              s.Smbm_forensics.Trace_file.src
              <> a.Smbm_forensics.Trace_file.src)
            sources)
  in
  (a, b)

let file_a_term =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"FILE_A" ~doc:"Event trace (JSONL) written by $(b,--trace).")

let file_b_term =
  Arg.(
    value
    & pos 1 (some string) None
    & info [] ~docv:"FILE_B"
        ~doc:"Second trace; omit when both sources are in $(i,FILE_A).")

let src_a_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "a"; "src-a" ] ~docv:"SRC"
        ~doc:"Reference source (e.g. $(b,OPT) or $(b,x=8/LWD)); default: the file's first source.")

let src_b_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "b"; "src-b" ] ~docv:"SRC"
        ~doc:"Source under scrutiny; default: the next distinct source.")

let read_jsonl_lines path =
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       let l = input_line ic in
       if String.trim l <> "" then lines := l :: !lines
     done
   with End_of_file -> close_in ic);
  List.rev !lines

(* Metric lines carry run labels (policy, model) the replayer cannot know;
   strip them before the bit-identity comparison. *)
let strip_metric_labels line =
  match Smbm_obs.Json.parse_flat line with
  | Error _ -> line
  | Ok fields ->
    Smbm_obs.Json.obj
      (List.filter (fun (k, _) -> k <> "policy" && k <> "model") fields)

let metric_policy_label lines =
  List.find_map
    (fun line ->
      match Smbm_obs.Json.parse_flat line with
      | Ok fields -> (
        match List.assoc_opt "policy" fields with
        | Some (Smbm_obs.Json.Str p) -> Some p
        | _ -> None)
      | Error _ -> None)
    lines

let run_trace_replay src expect_metrics path =
  let module F = Smbm_forensics in
  let file = load_trace path in
  let sources =
    match src with
    | None -> file.F.Trace_file.sources
    | Some name -> (
      match F.Trace_file.find file name with
      | Ok s -> [ s ]
      | Error msg -> die "%s" msg)
  in
  if sources = [] then die "%s: no event sources" path;
  let failed = ref false in
  let replayed =
    List.filter_map
      (fun (s : F.Trace_file.source) ->
        match F.Replay.replay s with
        | r ->
          Format.printf "%-20s %8d events  %a@." r.F.Replay.src
            r.F.Replay.events F.Replay.pp_status r.F.Replay.status;
          Format.printf "  %a@." Smbm_sim.Metrics.pp r.F.Replay.metrics;
          Some r
        | exception F.Replay.Divergent { src; lineno; slot; reason } ->
          failed := true;
          Printf.printf "%-20s DIVERGED at %s:%d (slot %d): %s\n" src path
            lineno slot reason;
          None)
      sources
  in
  (match expect_metrics with
  | None -> ()
  | Some mpath ->
    let expected = read_jsonl_lines mpath in
    let r =
      match metric_policy_label expected with
      | None -> (
        match replayed with
        | [ r ] -> r
        | _ ->
          die "%s: no policy label; pass --src to pick the source to compare"
            mpath)
      | Some policy -> (
        match
          List.find_opt
            (fun (r : Smbm_forensics.Replay.t) ->
              r.Smbm_forensics.Replay.src = policy
              || has_suffix ~suffix:("/" ^ policy)
                   r.Smbm_forensics.Replay.src)
            replayed
        with
        | Some r -> r
        | None -> die "%s: no replayed source matches policy %S" mpath policy)
    in
    let expected = List.map strip_metric_labels expected in
    let got = Smbm_sim.Metrics.to_jsonl r.Smbm_forensics.Replay.metrics in
    if expected = got then
      Printf.printf
        "%s: reconstructed metrics of %s are bit-identical (%d lines)\n"
        mpath r.Smbm_forensics.Replay.src (List.length got)
    else begin
      failed := true;
      Printf.printf "%s: reconstructed metrics of %s DIFFER\n" mpath
        r.Smbm_forensics.Replay.src;
      let rec first_diff i xs ys =
        match (xs, ys) with
        | x :: xs', y :: ys' ->
          if x = y then first_diff (i + 1) xs' ys'
          else Printf.printf "  line %d:\n    expected %s\n    replayed %s\n" i x y
        | x :: _, [] -> Printf.printf "  line %d only expected: %s\n" i x
        | [], y :: _ -> Printf.printf "  line %d only replayed: %s\n" i y
        | [], [] -> ()
      in
      first_diff 1 expected got
    end);
  if !failed then exit 1

let trace_replay_cmd =
  let src =
    Arg.(
      value
      & opt (some string) None
      & info [ "src" ] ~docv:"SRC" ~doc:"Replay only this source.")
  in
  let expect_metrics =
    Arg.(
      value
      & opt (some string) None
      & info [ "expect-metrics" ] ~docv:"FILE"
          ~doc:
            "Metrics JSONL written by $(b,--metrics-out) in the same run; \
             fail unless the replayed counters and histograms reproduce it \
             bit-identically (run labels excepted).")
  in
  Cmd.v
    (Cmd.info "trace-replay"
       ~doc:
         "Fold an event trace back into shadow switch state: reconstruct \
          per-port occupancy, buffer fill and every aggregate counter, \
          certifying them against the recorded slot-end occupancies and \
          conservation at every slot.  Exits non-zero on the first \
          divergent event.")
    Term.(const run_trace_replay $ src $ expect_metrics $ file_a_term)

let run_trace_diff file_a file_b src_a src_b csv limit =
  let module F = Smbm_forensics in
  let a, b = resolve_pair file_a file_b src_a src_b in
  match F.Diff.diff ~a ~b with
  | Error msg -> die "%s" msg
  | Ok d ->
    Printf.printf "diff %s (A) vs %s (B): %d admissions over %d slots\n"
      d.F.Diff.a d.F.Diff.b d.F.Diff.admissions
      (min d.F.Diff.slots_a d.F.Diff.slots_b);
    if d.F.Diff.slots_a <> d.F.Diff.slots_b then
      Printf.printf "  (slot counts differ: A %d, B %d)\n" d.F.Diff.slots_a
        d.F.Diff.slots_b;
    (match d.F.Diff.first with
    | None -> Printf.printf "decision sequences are identical\n"
    | Some f ->
      Printf.printf
        "first divergence: slot %d, arrival #%d to port %d: A %s, B %s\n"
        f.F.Diff.slot f.F.Diff.index f.F.Diff.dest
        (F.Diff.decision_to_string f.F.Diff.a)
        (F.Diff.decision_to_string f.F.Diff.b);
      Printf.printf "differing admissions: %d / %d\n" d.F.Diff.diffs
        d.F.Diff.admissions);
    let divergent =
      List.filter (fun (r : F.Diff.row) -> r.F.Diff.diffs > 0) d.F.Diff.rows
    in
    (match divergent with
    | [] -> ()
    | _ ->
      let shown = List.filteri (fun i _ -> i < limit) divergent in
      Printf.printf "divergent slots (%d total, first %d):\n"
        (List.length divergent) (List.length shown);
      let rows =
        List.map
          (fun (r : F.Diff.row) ->
            [
              string_of_int r.F.Diff.slot;
              string_of_int r.F.Diff.arrivals;
              string_of_int r.F.Diff.diffs;
              string_of_int r.F.Diff.occ_a;
              string_of_int r.F.Diff.occ_b;
              string_of_int r.F.Diff.cum_tx_a;
              string_of_int r.F.Diff.cum_tx_b;
            ])
          shown
      in
      print_string
        (Smbm_report.Table.render
           ~headers:
             [ "slot"; "arrivals"; "diffs"; "occ A"; "occ B"; "cumTx A"; "cumTx B" ]
           ~rows ()));
    (match List.rev d.F.Diff.rows with
    | last :: _ ->
      Printf.printf "final objective: A %d vs B %d (gap %d)\n"
        last.F.Diff.cum_tx_a last.F.Diff.cum_tx_b
        (last.F.Diff.cum_tx_a - last.F.Diff.cum_tx_b)
    | [] -> ());
    (match csv with
    | None -> ()
    | Some path ->
      let oc = open_out path in
      Smbm_report.Csv.write oc
        ([ "slot"; "arrivals"; "diffs"; "occ_a"; "occ_b"; "cum_tx_a"; "cum_tx_b" ]
        :: List.map
             (fun (r : F.Diff.row) ->
               [
                 string_of_int r.F.Diff.slot;
                 string_of_int r.F.Diff.arrivals;
                 string_of_int r.F.Diff.diffs;
                 string_of_int r.F.Diff.occ_a;
                 string_of_int r.F.Diff.occ_b;
                 string_of_int r.F.Diff.cum_tx_a;
                 string_of_int r.F.Diff.cum_tx_b;
               ])
             d.F.Diff.rows);
      close_out oc;
      Printf.printf "wrote %s\n" path);
    if d.F.Diff.first <> None then exit 2

let trace_diff_cmd =
  let csv =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"FILE" ~doc:"Write the full per-slot timeline as CSV.")
  in
  let limit =
    Arg.(
      value & opt int 20
      & info [ "limit" ] ~docv:"N" ~doc:"Divergent slots to print (default 20).")
  in
  Cmd.v
    (Cmd.info "trace-diff"
       ~doc:
         "Align two traces of the same arrival instance (two policies, or a \
          policy against the OPT reference) and report the first admission \
          decision where they part ways, plus a per-slot divergence \
          timeline.  Exits 2 when the decision sequences differ.")
    Term.(
      const run_trace_diff $ file_a_term $ file_b_term $ src_a_term
      $ src_b_term $ csv $ limit)

let run_trace_explain file_a file_b src_a src_b top csv =
  let module F = Smbm_forensics in
  let a, b = resolve_pair file_a file_b src_a src_b in
  match F.Attribution.attribute ~a ~b with
  | Error msg -> die "%s" msg
  | Ok t ->
    Printf.printf
      "attributing the gap of %s (B) vs %s (A) over %d slots%s\n"
      t.F.Attribution.b t.F.Attribution.a t.F.Attribution.slots
      (if t.F.Attribution.per_port_mode then "" else " (aggregate mode)");
    Printf.printf "objective: A %d, B %d, gap %d\n" t.F.Attribution.tx_a
      t.F.Attribution.tx_b t.F.Attribution.gap;
    let balance =
      t.F.Attribution.charged + t.F.Attribution.uncharged
      - t.F.Attribution.credits
    in
    Printf.printf
      "conservation: charged %d + uncharged %d - credits %d = %d %s\n"
      t.F.Attribution.charged t.F.Attribution.uncharged
      t.F.Attribution.credits balance
      (if balance = t.F.Attribution.gap then "= gap [ok]" else "<> gap [BROKEN]");
    if balance <> t.F.Attribution.gap then exit 1;
    let ranked = List.filteri (fun i _ -> i < top) t.F.Attribution.ranked in
    if ranked <> [] then begin
      Printf.printf "most expensive decisions of %s (top %d of %d charged):\n"
        t.F.Attribution.b (List.length ranked)
        (List.length t.F.Attribution.ranked);
      print_string
        (Smbm_report.Table.render
           ~headers:[ "line"; "slot"; "kind"; "queue"; "lost"; "charged" ]
           ~rows:
             (List.map
                (fun (l : F.Attribution.loss) ->
                  [
                    string_of_int l.F.Attribution.lineno;
                    string_of_int l.F.Attribution.slot;
                    F.Attribution.kind_to_string l.F.Attribution.kind;
                    (if l.F.Attribution.port < 0 then "-"
                     else string_of_int l.F.Attribution.port);
                    string_of_int l.F.Attribution.capacity;
                    string_of_int l.F.Attribution.charged;
                  ])
                ranked)
           ())
    end;
    (match t.F.Attribution.port_regret with
    | [] -> ()
    | per_port ->
      Printf.printf "per-port regret (A's lead in objective units):\n";
      List.iter
        (fun (port, r) ->
          if r <> 0 then Printf.printf "  port %2d: %+d\n" port r)
        per_port);
    if Array.length t.F.Attribution.regret_series > 1 then begin
      let series =
        Smbm_report.Series.of_ints ~name:"cumulative regret"
          ~points:
            (List.map
               (fun (slot, r) -> (slot, float_of_int r))
               (Array.to_list t.F.Attribution.regret_series))
      in
      print_string
        (Smbm_report.Ascii_plot.render
           ~title:
             (Printf.sprintf "regret of %s vs %s" t.F.Attribution.b
                t.F.Attribution.a)
           ~x_label:"slot" [ series ])
    end;
    (match csv with
    | None -> ()
    | Some path ->
      let oc = open_out path in
      Smbm_report.Csv.write oc
        ([ "slot"; "cumulative_regret" ]
        :: List.map
             (fun (slot, r) -> [ string_of_int slot; string_of_int r ])
             (Array.to_list t.F.Attribution.regret_series));
      close_out oc;
      Printf.printf "wrote %s\n" path)

let trace_explain_cmd =
  let top =
    Arg.(
      value & opt int 15
      & info [ "top" ] ~docv:"N" ~doc:"Ranked loss events to print (default 15).")
  in
  let csv =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"FILE"
          ~doc:"Write the cumulative regret series as CSV.")
  in
  Cmd.v
    (Cmd.info "trace-explain"
       ~doc:
         "Charge every unit of objective a reference run (A) delivered and \
          a policy run (B) did not to B's concrete loss events — drops, \
          push-outs, flushes — producing a ranked table of the most \
          expensive decisions and a per-port regret series.  The charge is \
          conservative: charged + uncharged - credits equals the measured \
          gap exactly.")
    Term.(
      const run_trace_explain $ file_a_term $ file_b_term $ src_a_term
      $ src_b_term $ top $ csv)

(* ----- lowerbound ----- *)

let run_lowerbound which jobs =
  let open Smbm_lowerbounds in
  let entries =
    if String.lowercase_ascii which = "all" then Constructions.all
    else
      match Constructions.find ~theorem:which with
      | Some c -> [ c ]
      | None ->
        failwith
          (Printf.sprintf
             "unknown construction %S (try \"Thm 4\" or \"all\")" which)
  in
  let measures =
    Runner.measure_many ~jobs:(jobs_of jobs)
      (List.map (fun (c : Constructions.t) -> c.measure) entries)
  in
  let rows =
    List.map2
      (fun (c : Constructions.t) (m : Runner.measured) ->
        [
          c.theorem;
          c.policy;
          (match c.model with `Proc -> "proc" | `Value -> "value");
          c.bound_text;
          Smbm_report.Table.float_cell c.finite_bound;
          Smbm_report.Table.float_cell m.Runner.ratio;
        ])
      entries measures
  in
  print_string
    (Smbm_report.Table.render
       ~headers:[ "theorem"; "policy"; "model"; "bound"; "finite bound"; "measured" ]
       ~rows ())

let lowerbound_cmd =
  let which =
    Arg.(value & pos 0 string "all" & info [] ~docv:"THM" ~doc:"Theorem label (\"Thm 1\" .. \"Thm 11\") or \"all\".")
  in
  Cmd.v
    (Cmd.info "lowerbound"
       ~doc:"Run a theorem's adversarial construction against its scripted OPT and compare the measured ratio with the closed-form bound.")
    Term.(const run_lowerbound $ which $ jobs_term)

(* ----- sweep ----- *)

let run_sweep common model axis_name xs csv =
  let base = base_of common in
  let axis =
    match String.lowercase_ascii axis_name with
    | "k" -> Sweep.K
    | "b" -> Sweep.B
    | "c" -> Sweep.C
    | other -> failwith (Printf.sprintf "unknown axis %S (expected k|b|c)" other)
  in
  let xs =
    match xs with
    | [] -> failwith "provide swept values with --xs, e.g. --xs 2,4,8,16"
    | xs -> xs
  in
  let points =
    Smbm_par.Par_sweep.run_points ~jobs:(jobs_of common.jobs) ~base ~model
      ~axis ~xs ()
  in
  let names = match points with (_, r) :: _ -> List.map fst r | [] -> [] in
  let headers = axis_name :: names in
  let rows =
    List.map
      (fun (x, ratios) ->
        string_of_int x
        :: List.map (fun (_, r) -> Smbm_report.Table.float_cell r) ratios)
      points
  in
  print_string (Smbm_report.Table.render ~headers ~rows ());
  match csv with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    Smbm_report.Csv.write oc (headers :: rows);
    close_out oc;
    Printf.printf "wrote %s\n" path

let sweep_cmd =
  let axis =
    Arg.(
      value & opt string "k"
      & info [ "axis" ] ~docv:"AXIS" ~doc:"Swept parameter: $(b,k), $(b,b) or $(b,c).")
  in
  let xs =
    Arg.(
      value & opt (list int) []
      & info [ "xs" ] ~docv:"X1,X2,.." ~doc:"Values to sweep over (required).")
  in
  let csv =
    Arg.(
      value & opt (some string) None
      & info [ "csv" ] ~docv:"FILE" ~doc:"Also write the table as CSV.")
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"Sweep an arbitrary parameter (k, B or C) for any model, with the traffic intensity held at the base configuration - the general form of the $(b,figure) panels.")
    Term.(const run_sweep $ common_term $ model_term $ axis $ xs $ csv)

(* ----- certify ----- *)

let run_certify common opponent_name =
  let config =
    Proc_config.contiguous ~k:common.k ~buffer:common.buffer ()
  in
  let opponent =
    match String.lowercase_ascii opponent_name with
    | "greedy" ->
      Proc_policy.make ~name:"greedy" ~push_out:false (fun sw ~dest:_ ->
          if Proc_switch.is_full sw then Decision.Drop else Decision.Accept)
    | name -> (
      match Policies.proc_find config name with
      | Some (p : Proc_policy.t) when not p.push_out -> p
      | Some _ -> failwith (name ^ " pushes out; Theorem 7 opponents may not")
      | None -> failwith ("unknown opponent policy: " ^ name))
  in
  let mmpp = { Smbm_traffic.Scenario.default_mmpp with sources = common.sources } in
  let workload =
    Smbm_traffic.Scenario.proc_workload ~mmpp ~config ~load:common.load
      ~seed:common.seed ()
  in
  let report =
    Smbm_analysis.Mapping_certifier.run ~config ~opponent
      ~trace:(fun _ -> Smbm_traffic.Workload.next workload)
      ~slots:common.slots ()
  in
  Format.printf
    "Theorem 7 mapping certificate (LWD vs %s, %d slots):@.  %a@."
    opponent_name common.slots Smbm_analysis.Mapping_certifier.pp_report
    report;
  if report.Smbm_analysis.Mapping_certifier.violation_count = 0 then
    Format.printf
      "  certified: every opponent transmission is charged to an LWD\n\
      \  transmission, at most two per packet (%d <= 2 x %d).@."
      report.Smbm_analysis.Mapping_certifier.opt_transmitted
      report.Smbm_analysis.Mapping_certifier.lwd_transmitted

let certify_cmd =
  let opponent =
    Arg.(
      value & opt string "greedy"
      & info [ "opponent" ] ~docv:"NAME"
          ~doc:
            "Non-push-out opponent policy ($(b,greedy), $(b,NHST), $(b,NEST), $(b,NHDT)).")
  in
  Cmd.v
    (Cmd.info "certify"
       ~doc:
         "Run the paper's Theorem 7 mapping routine (Fig. 3) live: LWD against a non-push-out opponent with the charging invariants checked at every event.")
    Term.(const run_certify $ common_term $ opponent)

(* ----- bench-diff ----- *)

let load_bench_metrics path =
  let ic = open_in path in
  let metrics = ref [] in
  let line_no = ref 0 in
  (try
     while true do
       let line = input_line ic in
       incr line_no;
       if String.trim line <> "" then begin
         match Smbm_obs.Json.parse_flat line with
         | Error msg ->
           close_in ic;
           failwith (Printf.sprintf "%s:%d: %s" path !line_no msg)
         | Ok fields -> (
           match
             (List.assoc_opt "metric" fields, List.assoc_opt "value" fields)
           with
           | Some (Smbm_obs.Json.Str name), Some (Smbm_obs.Json.Float v) ->
             metrics := (name, v) :: !metrics
           | Some (Smbm_obs.Json.Str name), Some (Smbm_obs.Json.Int v) ->
             metrics := (name, float_of_int v) :: !metrics
           | _ -> ())
       end
     done
   with End_of_file -> close_in ic);
  List.rev !metrics

let parse_floor spec =
  match String.rindex_opt spec '=' with
  | None -> failwith (Printf.sprintf "--floor %s: expected METRIC=X" spec)
  | Some i -> (
    let name = String.sub spec 0 i in
    let v = String.sub spec (i + 1) (String.length spec - i - 1) in
    match float_of_string_opt v with
    | Some x when name <> "" -> (name, x)
    | _ -> failwith (Printf.sprintf "--floor %s: expected METRIC=X" spec))

let run_bench_diff baseline current tolerance cap slack alloc_tolerance floors
    =
  let floors = List.map parse_floor floors in
  let base = load_bench_metrics baseline
  and cur = load_bench_metrics current in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  (* Raw slots/sec are machine-dependent; speedup ratios between two arms
     of one run transfer between machines, so the regression gate compares
     those.  Ratios are saturated at [cap] before comparison: beyond it the
     faster arm's wall time is so short that the exact magnitude is timing
     noise, while any real regression collapses the ratio toward 1x and is
     caught regardless. *)
  let is_ratio n =
    has_suffix ~suffix:"/speedup" n || has_suffix ~suffix:"/total" n
  in
  let speedups = List.filter (fun (n, _) -> is_ratio n) base in
  if speedups = [] then fail "%s: no */speedup metrics" baseline;
  Printf.printf "%-32s %9s %9s %8s\n" "metric" "baseline" "current" "delta";
  List.iter
    (fun (name, b) ->
      match List.assoc_opt name cur with
      | None -> fail "%s: missing from %s" name current
      | Some c ->
        Printf.printf "%-32s %8.2fx %8.2fx %+7.1f%%\n" name b c
          ((c -. b) /. b *. 100.0);
        let b = Float.min b cap and c = Float.min c cap in
        (* [slack] absorbs run-to-run jitter that a pure percentage cannot:
           a 2x ratio legitimately wobbles by a few tenths between runs. *)
        if c < (b *. (1.0 -. tolerance)) -. slack then
          fail "%s regressed: %.2fx -> %.2fx (tolerance %.0f%% + %.1f, cap %.1fx)"
            name b c (tolerance *. 100.0) slack cap)
    speedups;
  (* Allocation budget: minor words per slot are deterministic (no timing
     noise), so they transfer between machines and get a plain percentage
     gate — an accidentally reintroduced per-arrival allocation shows up
     here even when wall-clock ratios absorb it. *)
  let allocs =
    List.filter
      (fun (n, _) -> has_suffix ~suffix:"/minor_words_per_slot" n)
      base
  in
  List.iter
    (fun (name, b) ->
      match List.assoc_opt name cur with
      | None -> fail "%s: missing from %s" name current
      | Some c ->
        Printf.printf "%-44s %8.1fw %8.1fw %+7.1f%%\n" name b c
          ((c -. b) /. b *. 100.0);
        if c > b *. (1.0 +. alloc_tolerance) +. 1.0 then
          fail "%s allocation regressed: %.1f -> %.1f words/slot (>%.0f%%)"
            name b c (alloc_tolerance *. 100.0))
    allocs;
  (* Metrics the fresh run emits that the committed baseline lacks are not
     errors — they are cells a new benchmark arm added — but silently
     skipping them would leave them ungated forever.  Print each one so the
     baseline regeneration is visible in the gate's output. *)
  let gated n = is_ratio n || has_suffix ~suffix:"/minor_words_per_slot" n in
  List.iter
    (fun (name, c) ->
      if gated name && not (List.mem_assoc name base) then
        Printf.printf "%-32s %9s %8.2f  [new]\n" name "-" c)
    cur;
  (* Absolute acceptance floors: explicit METRIC=X floors checked against
     the current run. *)
  List.iter
    (fun (name, floor) ->
      match List.assoc_opt name cur with
      | Some c when c < floor ->
        fail "%s = %.2fx below the %.1fx floor" name c floor
      | Some _ -> ()
      | None -> fail "%s missing from %s" name current)
    floors;
  match !failures with
  | [] ->
    Printf.printf
      "bench-diff: %d speedup ratios, %d allocation budgets, %d floors ok\n"
      (List.length speedups) (List.length allocs) (List.length floors)
  | fs ->
    List.iter (fun f -> Printf.eprintf "bench-diff: %s\n" f) (List.rev fs);
    exit 1

let bench_diff_cmd =
  let baseline =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"BASELINE" ~doc:"Committed benchmark JSONL (the reference).")
  in
  let current =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"CURRENT" ~doc:"Freshly generated benchmark JSONL.")
  in
  let tolerance =
    Arg.(
      value & opt float 0.2
      & info [ "tolerance" ] ~docv:"FRAC"
          ~doc:"Allowed relative regression of each speedup ratio (default 0.2 = 20%).")
  in
  let cap =
    Arg.(
      value & opt float 4.0
      & info [ "cap" ] ~docv:"X"
          ~doc:
            "Saturate speedup ratios at $(docv) before comparing: very large \
             ratios are timing-noise-dominated, and a real regression drags \
             them below the cap anyway (default 4.0).")
  in
  let slack =
    Arg.(
      value & opt float 0.3
      & info [ "slack" ] ~docv:"X"
          ~doc:
            "Absolute jitter allowance subtracted from each gate threshold \
             (default 0.3).")
  in
  let alloc_tolerance =
    Arg.(
      value & opt float 0.2
      & info [ "alloc-tolerance" ] ~docv:"FRAC"
          ~doc:
            "Allowed relative growth of each */minor_words_per_slot metric \
             (default 0.2 = 20%; allocation counts are deterministic, so no \
             slack term applies).")
  in
  let floors =
    Arg.(
      value & opt_all string []
      & info [ "floor" ] ~docv:"METRIC=X"
          ~doc:
            "Absolute floor on a current-run metric (repeatable), e.g. \
             $(b,--floor e2e/pipeline/proc/speedup=2).")
  in
  Cmd.v
    (Cmd.info "bench-diff"
       ~doc:
         "Compare two benchmark JSONL outputs (e.g. $(b,bench/e2e.exe)) and \
          fail on speedup-ratio regressions beyond \
          the tolerance, allocation-budget regressions, or floor violations \
          (CI gate against the committed BENCH_*.json).")
    Term.(
      const run_bench_diff $ baseline $ current $ tolerance $ cap $ slack
      $ alloc_tolerance $ floors)

(* ----- serve / loadgen ----- *)

let serve_model common model =
  match model with
  | Sweep.Proc ->
    Smbm_serve.Model.Proc
      (Proc_config.contiguous ~k:common.k ~buffer:common.buffer
         ~speedup:common.speedup ())
  | Sweep.Value_uniform ->
    Smbm_serve.Model.Value_uniform
      (Value_config.make ~ports:common.k ~max_value:common.k
         ~buffer:common.buffer ~speedup:common.speedup ())
  | Sweep.Value_port ->
    Smbm_serve.Model.Value_port
      (Value_config.make ~ports:common.k ~max_value:common.k
         ~buffer:common.buffer ~speedup:common.speedup ())

let parse_at spec =
  let bad () =
    die
      "--at %s: expected SLOT:policy=NAME, SLOT:buffer=N or SLOT:stop" spec
  in
  match String.index_opt spec ':' with
  | None -> bad ()
  | Some i -> (
    let slot = String.sub spec 0 i in
    let rest = String.sub spec (i + 1) (String.length spec - i - 1) in
    match int_of_string_opt slot with
    | None -> bad ()
    | Some slot when slot < 0 -> bad ()
    | Some slot -> (
      if rest = "stop" then (slot, Smbm_serve.Daemon.Stop)
      else
        match String.index_opt rest '=' with
        | None -> bad ()
        | Some j -> (
          let key = String.sub rest 0 j in
          let v = String.sub rest (j + 1) (String.length rest - j - 1) in
          match key with
          | "policy" when v <> "" -> (slot, Smbm_serve.Daemon.Set_policy v)
          | "buffer" -> (
            match int_of_string_opt v with
            | Some b -> (slot, Smbm_serve.Daemon.Resize_buffer b)
            | None -> bad ())
          | _ -> bad ())))

let open_sink path =
  match Smbm_obs.Sink.open_file path with
  | Ok sink -> sink
  | Error e -> die "%s" (Smbm_obs.Sink.error_to_string e)

let close_sink sink =
  match Smbm_obs.Sink.close_result sink with
  | Ok () -> ()
  | Error e -> die "%s" (Smbm_obs.Sink.error_to_string e)

let load_arrival_trace path =
  let ic = try open_in path with Sys_error m -> die "%s" m in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      try Smbm_traffic.Trace.load ic
      with Failure m -> die "%s: %s" path m)

let run_serve common model policy_name ingest_trace ring backpressure duration
    rate shards ats metrics_out metrics_every (trace, flight_cap) max_p99
    stats_sock stats_every stats_window postmortem =
  let mmpp =
    { Smbm_traffic.Scenario.default_mmpp with sources = common.sources }
  in
  let controls = List.map parse_at ats in
  let jobs = jobs_of common.jobs in
  let pool =
    if shards > 1 && jobs > 0 then
      Some (Smbm_par.Pool.create ~jobs:(min jobs shards) ())
    else None
  in
  let ingest =
    match ingest_trace with
    | Some path ->
      Smbm_serve.Daemon.Trace
        (Smbm_traffic.Trace.Compact.of_trace (load_arrival_trace path))
    | None ->
      Smbm_serve.Daemon.Bank
        (Smbm_serve.Mmpp_bank.create ~mmpp ?pool ~shards
           (serve_model common model) ~load:common.load ~seed:common.seed ())
  in
  let event_sink = Option.map open_sink trace in
  let metrics_sink = Option.map open_sink metrics_out in
  let report =
    Smbm_serve.Daemon.run ~ring_capacity:ring ~backpressure
      ?flush_every:(if common.flush > 0 then Some common.flush else None)
      ~metrics_every ?metrics_sink ?event_sink ~controls
      ?slots:(if common.slots > 0 then Some common.slots else None)
      ?duration:(if duration > 0. then Some duration else None)
      ?rate:(if rate > 0. then Some rate else None)
      ?stats_sock ~stats_every ~stats_window ~p99_budget_us:max_p99
      ~flight_cap ?postmortem ~model:(serve_model common model)
      ~policy:policy_name ~ingest ()
  in
  Option.iter Smbm_par.Pool.shutdown pool;
  Format.printf "%a@." Smbm_serve.Daemon.pp_report report;
  Option.iter
    (fun sink ->
      close_sink sink;
      Printf.printf "wrote metrics to %s\n" (Option.get metrics_out))
    metrics_sink;
  Option.iter
    (fun sink ->
      close_sink sink;
      if report.Smbm_serve.Daemon.events_evicted > 0 then
        Printf.eprintf "trace: %d events evicted (raise --flight-cap)\n"
          report.Smbm_serve.Daemon.events_evicted;
      Printf.printf "wrote trace to %s\n" (Option.get trace))
    event_sink;
  if not report.Smbm_serve.Daemon.conservation_ok then
    die "conservation audit failed: %s"
      (Option.value ~default:"?" report.Smbm_serve.Daemon.conservation_error);
  if max_p99 > 0. && report.Smbm_serve.Daemon.p99_us > max_p99 then begin
    Printf.eprintf "p99 slot time %.1f us exceeds the --max-p99-us gate %.1f\n"
      report.Smbm_serve.Daemon.p99_us max_p99;
    exit 2
  end;
  if report.Smbm_serve.Daemon.degraded then begin
    Printf.eprintf "health degraded at end of run:%s\n"
      (String.concat ""
         (List.filter_map
            (fun (name, tripped) -> if tripped then Some (" " ^ name) else None)
            report.Smbm_serve.Daemon.health));
    exit 3
  end

let backpressure_term =
  Arg.(
    value
    & opt
        (enum
           [ ("block", Smbm_serve.Daemon.Block); ("shed", Smbm_serve.Daemon.Shed) ])
        Smbm_serve.Daemon.Block
    & info [ "backpressure" ] ~docv:"MODE"
        ~doc:
          "Full-ring behaviour: $(b,block) paces the ingest on the engine, \
           $(b,shed) discards whole slots with explicit accounting.")

let ring_term =
  Arg.(
    value & opt int 64
    & info [ "ring" ] ~docv:"N"
        ~doc:"Ingest ring capacity in slots (bounds memory and ingest lead).")

let shards_term =
  Arg.(
    value & opt int 1
    & info [ "shards" ] ~docv:"N"
        ~doc:
          "Split the MMPP source bank into $(docv) independent shards, \
           stepped in parallel on $(b,--jobs) worker domains.  The arrival \
           stream depends only on (seed, shards), never on --jobs.")

let duration_term ~default =
  Arg.(
    value & opt float default
    & info [ "duration" ] ~docv:"SECS"
        ~doc:"Stop the ingest after $(docv) wall-clock seconds (0 = no limit).")

let serve_cmd =
  let policy =
    Arg.(
      value & opt string "LWD"
      & info [ "policy" ] ~docv:"NAME"
          ~doc:"Initial victim policy (see $(b,policies)).")
  in
  let ingest_trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "ingest-trace" ] ~docv:"FILE"
          ~doc:
            "Replay an arrival trace recorded with $(b,trace record) instead \
             of generating live MMPP traffic; the run ends with the trace.")
  in
  let rate =
    Arg.(
      value & opt float 0.
      & info [ "rate" ] ~docv:"SLOTS_PER_SEC"
          ~doc:"Pace the ingest at $(docv) slots per second (0 = unpaced).")
  in
  let ats =
    Arg.(
      value & opt_all string []
      & info [ "at" ] ~docv:"SLOT:KNOB"
          ~doc:
            "Scripted live reconfiguration, applied at the given slot \
             boundary without dropping buffered packets (repeatable): \
             $(b,SLOT:policy=NAME), $(b,SLOT:buffer=N) or $(b,SLOT:stop).")
  in
  let metrics_every =
    Arg.(
      value & opt int 0
      & info [ "metrics-every" ] ~docv:"SLOTS"
          ~doc:
            "Emit a labeled metrics snapshot to $(b,--metrics-out) every \
             $(docv) slots (0 = final snapshot only).")
  in
  let max_p99 =
    Arg.(
      value & opt float 0.
      & info [ "max-p99-us" ] ~docv:"US"
          ~doc:
            "Fail (exit 2) when the p99 engine slot time exceeds $(docv) \
             microseconds — the CI soak gate (0 disables).")
  in
  let stats_sock =
    Arg.(
      value
      & opt (some string) None
      & info [ "stats-sock" ] ~docv:"PATH"
          ~doc:
            "Serve live telemetry (stats | stats json | health | spans) on a \
             Unix socket at $(docv) from a dedicated domain; query it with \
             $(b,smbm_cli stats) / $(b,smbm_cli watch).  Also enables the \
             health watchdogs (exit 3 when degraded at end of run).")
  in
  let stats_every =
    Arg.(
      value & opt int 500
      & info [ "stats-every" ] ~docv:"SLOTS"
          ~doc:"Publish a fresh telemetry snapshot every $(docv) slots.")
  in
  let stats_window =
    Arg.(
      value & opt float 10.
      & info [ "stats-window" ] ~docv:"SECS"
          ~doc:
            "Rolling window for telemetry rates and windowed quantiles, in \
             seconds.")
  in
  let flight_cap =
    Arg.(
      value & opt int 65536
      & info [ "flight-cap" ] ~docv:"N"
          ~doc:
            "Size of the always-on event ring (last $(docv) events, \
             allocation-free; 0 disables it, and with it the black box and \
             $(b,--trace)).")
  in
  let serve_trace_term =
    trace_arg
      ~doc:
        "Write every event the daemon records (switch events, \
         reconfigurations, health transitions) as JSONL to $(docv), drained \
         from the event ring at the end of each slot.  A slot recording \
         more than $(b,--flight-cap) events leaves a truncated marker and \
         an eviction warning.  Validate with $(b,trace-validate)."
  in
  (* [--trace] drains the event ring, so it needs one. *)
  let trace_and_ring =
    let check trace flight_cap =
      match trace with
      | Some _ when flight_cap <= 0 ->
        `Error (true, "--trace drains the event ring: --flight-cap must be > 0")
      | _ -> `Ok (trace, flight_cap)
    in
    Term.(ret (const check $ serve_trace_term $ flight_cap))
  in
  let postmortem =
    Arg.(
      value
      & opt (some string) None
      & info [ "postmortem" ] ~docv:"BASE"
          ~doc:
            "On the first health trip, sink error or engine exception, dump \
             the flight ring and a state snapshot to $(docv).trace.bin + \
             $(docv).meta.jsonl (inspect with $(b,smbm_cli postmortem)).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run one switch instance as a long-lived daemon: bounded-ring \
          ingest (MMPP bank or trace replay) with block/shed backpressure, \
          live policy/buffer reconfiguration at slot boundaries, periodic \
          metrics and event flushing, an optional live stats socket with \
          health watchdogs, and a final conservation audit.")
    Term.(
      const run_serve $ common_term $ model_term $ policy $ ingest_trace
      $ ring_term $ backpressure_term
      $ duration_term ~default:0.
      $ rate $ shards_term $ ats $ metrics_out_term $ metrics_every
      $ trace_and_ring $ max_p99 $ stats_sock $ stats_every $ stats_window
      $ postmortem)

let run_loadgen common model policy_name ring duration shards =
  let mmpp =
    { Smbm_traffic.Scenario.default_mmpp with sources = common.sources }
  in
  let jobs = jobs_of common.jobs in
  let pool =
    if shards > 1 && jobs > 0 then
      Some (Smbm_par.Pool.create ~jobs:(min jobs shards) ())
    else None
  in
  let bank =
    Smbm_serve.Mmpp_bank.create ~mmpp ?pool ~shards (serve_model common model)
      ~load:common.load ~seed:common.seed ()
  in
  let rate_txt =
    match Smbm_serve.Mmpp_bank.mean_rate bank with
    | Some r -> Printf.sprintf "%.1f" r
    | None -> "?"
  in
  Printf.printf
    "loadgen: %d MMPP sources in %d shard(s), mean %s packets/slot, ring %d, \
     %.1fs\n\
     %!"
    common.sources shards rate_txt ring duration;
  let report =
    Smbm_serve.Daemon.run ~ring_capacity:ring ~backpressure:Block
      ?flush_every:(if common.flush > 0 then Some common.flush else None)
      ~duration
      ~model:(serve_model common model) ~policy:policy_name
      ~ingest:(Smbm_serve.Daemon.Bank bank) ()
  in
  Option.iter Smbm_par.Pool.shutdown pool;
  let r = report in
  Printf.printf
    "sustained %.0f slots/s (%.0f packets/s offered) over %d slots\n"
    r.Smbm_serve.Daemon.slots_per_sec
    (if r.Smbm_serve.Daemon.wall > 0. then
       float_of_int r.Smbm_serve.Daemon.arrivals /. r.Smbm_serve.Daemon.wall
     else 0.)
    r.Smbm_serve.Daemon.slots;
  Printf.printf "engine slot time p50 %.1f / p95 %.1f / p99 %.1f us\n"
    r.Smbm_serve.Daemon.p50_us r.Smbm_serve.Daemon.p95_us
    r.Smbm_serve.Daemon.p99_us;
  Printf.printf "ring max %d/%d\n" r.Smbm_serve.Daemon.ring_max
    r.Smbm_serve.Daemon.ring_capacity;
  if not r.Smbm_serve.Daemon.conservation_ok then
    die "conservation audit failed: %s"
      (Option.value ~default:"?" r.Smbm_serve.Daemon.conservation_error)

let loadgen_cmd =
  let policy =
    Arg.(
      value & opt string "LWD"
      & info [ "policy" ] ~docv:"NAME"
          ~doc:"Victim policy of the served instance (see $(b,policies)).")
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Drive a served switch instance with unpaced MMPP traffic for a \
          fixed duration and report the sustained slot rate and engine slot \
          time tail latency.")
    Term.(
      const run_loadgen $ common_term $ model_term $ policy $ ring_term
      $ duration_term ~default:2.
      $ shards_term)

(* ----- stats / watch: clients of the serve daemon's stats socket ----- *)

let sock_pos =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"SOCK"
        ~doc:"Path of a running daemon's $(b,--stats-sock) Unix socket.")

(* A daemon binds its stats socket only once its engine is up, so a client
   launched alongside it (CI soak legs, scripts) races startup.  Retry with
   exponential backoff until [timeout] seconds have passed; [timeout <= 0]
   means a single attempt. *)
let query_retry ~timeout ~path cmd =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go delay =
    match Smbm_serve.Telemetry.query ~path cmd with
    | Ok _ as ok -> ok
    | Error msg ->
      let now = Unix.gettimeofday () in
      if now >= deadline then Error msg
      else begin
        Unix.sleepf (Float.min delay (deadline -. now));
        go (Float.min 1.0 (delay *. 2.))
      end
  in
  go 0.05

let connect_timeout_arg =
  Cmdliner.Arg.(
    value & opt float 5.
    & info [ "connect-timeout" ] ~docv:"SECS"
        ~doc:
          "Keep retrying the first connection for up to $(docv) seconds \
           (with backoff) before giving up — tolerates querying a daemon \
           that is still starting.  0 means a single attempt.")

let run_stats sock json health spans connect_timeout =
  let cmd =
    if json then "stats json"
    else if health then "health"
    else if spans then "spans"
    else "stats"
  in
  match query_retry ~timeout:connect_timeout ~path:sock cmd with
  | Ok lines -> List.iter print_endline lines
  | Error msg -> die "stats %s: %s" sock msg

let stats_cmd =
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Ask for $(b,stats json) (one flat JSON line).")
  in
  let health =
    Arg.(
      value & flag
      & info [ "health" ]
          ~doc:
            "Ask for $(b,health): first line $(b,ok)/$(b,degraded), then one \
             line per watchdog rule.")
  in
  let spans =
    Arg.(
      value & flag
      & info [ "spans" ]
          ~doc:
            "Ask for $(b,spans): the slot-stage wall-time profile \
             (ingest/ring_wait/engine/flush).")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "One-shot query against a running daemon's stats socket.  Exit \
          status is nonzero when the socket is unreachable or the daemon \
          answers with an error.")
    Term.(const run_stats $ sock_pos $ json $ health $ spans
          $ connect_timeout_arg)

let run_watch sock interval connect_timeout =
  let module J = Smbm_obs.Json in
  let module T = Smbm_serve.Telemetry in
  let module Delta = Smbm_obs.Rolling.Delta in
  let module P = Smbm_obs.Progress in
  if interval <= 0. then die "watch: --interval must be positive";
  let f_float fields k =
    match List.assoc_opt k fields with
    | Some (J.Float f) -> f
    | Some (J.Int i) -> float_of_int i
    | _ -> 0.0
  in
  let f_int fields k =
    match List.assoc_opt k fields with Some (J.Int i) -> i | _ -> 0
  in
  let f_str fields k =
    match List.assoc_opt k fields with Some (J.Str s) -> s | _ -> "?"
  in
  (* Client-side rates: diff the cumulative samples of two consecutive
     polls — watch needs nothing from the daemon beyond `stats json`. *)
  let prev = ref None in
  let render fields health_lines =
    let at = f_float fields "at" in
    let samples =
      T.samples_of_json ~prefix:"engine" fields
      @ T.samples_of_json ~prefix:"server" fields
    in
    let buf = Buffer.create 1024 in
    let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
    line "smbm serve @ %s — slot %d, uptime %.1fs, policy %s, buffer %d" sock
      (f_int fields "slot") (f_float fields "uptime") (f_str fields "policy")
      (f_int fields "buffer");
    let occ = f_int fields "ring_occupancy" in
    let cap = max 1 (f_int fields "ring_capacity") in
    line "ring %s %d/%d (max %d)   shed %d slots (%d packets)"
      (P.bar (float_of_int occ /. float_of_int cap))
      occ cap (f_int fields "ring_max") (f_int fields "shed_slots")
      (f_int fields "shed_packets");
    line
      "window %.1fs: %.0f slots/s, %.0f arrivals/s, %.0f accepted/s, %.1f \
       drops/s, %.1f shed/s"
      (f_float fields "window.span")
      (f_float fields "window.slots_per_sec")
      (f_float fields "window.arrivals_per_sec")
      (f_float fields "window.accepted_per_sec")
      (f_float fields "window.drops_per_sec")
      (f_float fields "window.shed_slots_per_sec");
    line "slot time p50 %.1f / p95 %.1f / p99 %.1f us"
      (f_float fields "window.p50_us")
      (f_float fields "window.p95_us")
      (f_float fields "window.p99_us");
    (match !prev with
    | Some (at0, earlier) when at > at0 ->
      let d = Delta.diff ~dt:(at -. at0) ~earlier ~later:samples in
      let r name = Option.value ~default:0.0 (Delta.rate d name) in
      line
        "last %.1fs: %.0f slots/s, %.0f arrivals/s, %.1f drops/s, interval \
         p99 %.1f us"
        (at -. at0) (r "slots") (r "arrivals") (r "dropped")
        (Option.value ~default:0.0 (Delta.quantile d "slot_time_us" 0.99))
    | _ -> line "last interval: warming up");
    prev := Some (at, samples);
    (match health_lines with
    | [] -> ()
    | summary :: rules ->
      line "health: %s" summary;
      List.iter (fun l -> line "  %s" l) rules);
    buf
  in
  let had_success = ref false in
  (* Drift-free cadence: ticks are scheduled against absolute due times
     ([t0 + k*interval]), so render and query time do not accumulate into
     the period; a poll that overruns skips the missed ticks instead of
     shifting every later one. *)
  let t0 = Unix.gettimeofday () in
  let rec loop first tick =
    let query =
      (* Only the very first poll tolerates a daemon still starting; once
         connected, an unreachable socket means the daemon ended. *)
      if !had_success then T.query ~path:sock
      else query_retry ~timeout:connect_timeout ~path:sock
    in
    match query "stats json" with
    | Error msg ->
      if !had_success then begin
        (* The daemon unlinking its socket at shutdown lands here: a clean
           end of watch, not an error. *)
        print_newline ();
        Printf.printf "watch: daemon ended (%s)\n" msg
      end
      else die "watch %s: %s" sock msg
    | Ok [] -> die "watch %s: empty answer" sock
    | Ok (json_line :: _) -> (
      match J.parse_flat json_line with
      | Error m -> die "watch %s: bad stats json: %s" sock m
      | Ok fields ->
        had_success := true;
        let health_lines =
          match T.query ~path:sock "health" with
          | Ok lines -> lines
          | Error _ -> []
        in
        let buf = render fields health_lines in
        print_string
          (if first then Smbm_obs.Progress.clear_screen
           else Smbm_obs.Progress.home);
        print_string (Buffer.contents buf);
        print_string Smbm_obs.Progress.erase_below;
        flush stdout;
        let now = Unix.gettimeofday () in
        let next =
          let due = tick + 1 in
          let behind =
            int_of_float (Float.max 0. ((now -. t0) /. interval)) in
          if behind >= due then behind + 1 else due
        in
        Unix.sleepf (Float.max 0. ((t0 +. (interval *. float_of_int next)) -. now));
        loop false next)
  in
  loop true 0

let watch_cmd =
  let interval =
    Arg.(
      value & opt float 1.0
      & info [ "interval" ] ~docv:"SECS"
          ~doc:"Seconds between polls (default 1).")
  in
  Cmd.v
    (Cmd.info "watch"
       ~doc:
         "Refreshing TTY dashboard over a running daemon's stats socket: \
          server-side window rates plus client-side rates diffed from \
          consecutive $(b,stats json) polls.  Ends cleanly when the daemon \
          shuts down.")
    Term.(const run_watch $ sock_pos $ interval $ connect_timeout_arg)

let run_postmortem action path out =
  let module PM = Smbm_forensics.Postmortem in
  match PM.load path with
  | Error msg -> die "postmortem: %s" msg
  | Ok (meta, trace) -> (
    match action with
    | `Show ->
      Format.printf "@[<v>%a@]@." PM.pp_meta meta;
      Format.printf "trace: %s (%d events, %d sources)@."
        (PM.trace_path (PM.base_of path))
        meta.PM.events
        (List.length trace.Smbm_forensics.Trace_file.sources)
    | `Certify -> (
      match PM.certify meta trace with
      | Ok verdict -> Format.printf "%a@." PM.pp_verdict verdict
      | Error msg -> die "postmortem certify: %s" msg)
    | `Export -> (
      let out =
        match out with
        | Some o -> o
        | None -> PM.base_of path ^ ".trace.jsonl"
      in
      match
        Smbm_forensics.Trace_file.read_events
          (PM.trace_path (PM.base_of path))
      with
      | Error msg -> die "postmortem export: %s" msg
      | Ok events ->
        let oc = open_out out in
        List.iter
          (fun (_, ev) ->
            output_string oc (Smbm_obs.Event.to_json ev);
            output_char oc '\n')
          events;
        close_out oc;
        Printf.printf "postmortem export: %d events -> %s\n"
          (List.length events) out))

let postmortem_cmd =
  let action =
    let act =
      Arg.enum [ ("show", `Show); ("certify", `Certify); ("export", `Export) ]
    in
    Arg.(
      required
      & pos 0 (some act) None
      & info [] ~docv:"ACTION"
          ~doc:
            "$(b,show) prints the snapshot and trace summary; $(b,certify) \
             replays the dumped window and checks it against the snapshot; \
             $(b,export) writes the trace half as JSONL.")
  in
  let path =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"DUMP"
          ~doc:
            "Postmortem base path, or either of its files \
             ($(i,BASE).trace.bin / $(i,BASE).meta.jsonl).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE"
          ~doc:
            "Output file for $(b,export) (default \
             $(i,BASE).trace.jsonl).")
  in
  Cmd.v
    (Cmd.info "postmortem"
       ~doc:
         "Inspect, certify or export a black-box dump written by $(b,smbm_cli \
          serve --postmortem).  $(b,certify) exits nonzero on replay \
          divergence or a snapshot mismatch.")
    Term.(const run_postmortem $ action $ path $ out)

let () =
  let doc = "shared-memory buffer management for heterogeneous packet processing" in
  let man =
    [
      `S Manpage.s_synopsis;
      `P "$(b,smbm_cli policies) — list the available policies";
      `P
        "$(b,smbm_cli compare) [$(i,OPTIONS)] — all policies in lockstep on \
         one arrival stream";
      `P "$(b,smbm_cli simulate) [$(i,OPTIONS)] — one policy, detailed metrics";
      `P "$(b,smbm_cli sweep) [$(i,OPTIONS)] — arbitrary k/B/C sweep";
      `P "$(b,smbm_cli figure) $(i,PANEL) [$(i,OPTIONS)] — regenerate a Fig. 5 panel (1-9)";
      `P
        "$(b,smbm_cli lowerbound) $(i,THM) — run a theorem's adversarial \
         construction";
      `P "$(b,smbm_cli trace) record|stats $(i,FILE) — record / inspect arrival traces";
      `P "$(b,smbm_cli trace-validate) $(i,FILE) — structural audit of an event trace";
      `P
        "$(b,smbm_cli trace-replay) $(i,FILE) — reconstruct state and metrics \
         from events";
      `P
        "$(b,smbm_cli trace-diff) $(i,FILE_A) [$(i,FILE_B)] — first divergence \
         between two event sources";
      `P
        "$(b,smbm_cli trace-explain) $(i,FILE_A) [$(i,FILE_B)] — charge a \
         throughput gap to loss events";
      `P
        "$(b,smbm_cli trace-convert) $(i,IN) $(i,OUT) — convert an event \
         trace between JSONL and binary, losslessly";
      `P
        "$(b,smbm_cli postmortem) show|certify|export $(i,DUMP) — inspect or \
         replay-certify a black-box dump";
      `P "$(b,smbm_cli certify) [$(i,OPTIONS)] — Theorem 7's mapping routine, live";
      `P
        "$(b,smbm_cli serve) [$(i,OPTIONS)] — online switch daemon with \
         bounded-ring ingest and live reconfiguration";
      `P
        "$(b,smbm_cli loadgen) [$(i,OPTIONS)] — MMPP load generator reporting \
         sustained slot rate and tail latency";
      `P
        "$(b,smbm_cli stats) $(i,SOCK) [--json|--health|--spans] — one-shot \
         query of a daemon's stats socket";
      `P
        "$(b,smbm_cli watch) $(i,SOCK) [--interval $(i,SECS)] — refreshing \
         TTY dashboard over a stats socket";
      `P
        "$(b,smbm_cli bench-diff) $(i,BASELINE) $(i,CURRENT) — gate benchmark \
         JSONL against a committed baseline";
    ]
  in
  let info = Cmd.info "smbm_cli" ~version:"1.0.0" ~doc ~man in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            policies_cmd; compare_cmd; simulate_cmd; figure_cmd;
            lowerbound_cmd; trace_cmd; trace_validate_cmd; trace_replay_cmd;
            trace_diff_cmd; trace_explain_cmd; trace_convert_cmd; certify_cmd;
            sweep_cmd; bench_diff_cmd; serve_cmd; loadgen_cmd; stats_cmd;
            watch_cmd; postmortem_cmd;
          ]))
