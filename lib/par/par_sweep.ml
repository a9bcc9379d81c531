open Smbm_sim

let split_seeds ~seed n =
  let module Rng = Smbm_prelude.Rng in
  let parent = Rng.create ~seed in
  List.init n (fun _ -> Int64.to_int (Rng.bits64 (Rng.split parent)))

(* One simulation: a sweep point, with the replicate seed (if any) already
   in [base]. *)
type task = { base : Sweep.base; model : Sweep.model; axis : Sweep.axis; x : int }

let trace_key { base; model; axis; x } = Sweep.trace_key ~base ~model ~axis ~x

(* Trace prematerialization: before sharding the tasks, every trace key
   used by >= 2 tasks (and within the size budget) is materialized once on
   the caller, and the resulting immutable compact traces are shared
   read-only by all tasks across domains.  Keys are deterministic functions
   of the task parameters, so the set of materialized traces (and every
   replayed stream) is independent of [jobs] and of worker scheduling.
   Materializing outside the pool keeps [on_tick] counting simulations
   only. *)
let prematerialize tasks =
  let counts = Hashtbl.create 16 in
  let reps = ref [] in
  List.iter
    (fun task ->
      let key = trace_key task in
      match Hashtbl.find_opt counts key with
      | None ->
        Hashtbl.replace counts key 1;
        reps := (key, task) :: !reps
      | Some n -> Hashtbl.replace counts key (n + 1))
    tasks;
  let cached =
    List.filter_map
      (fun (key, { base; model; axis; x }) ->
        if
          Hashtbl.find counts key >= 2
          && Sweep.trace_worth_caching ~base ~model ~axis ~x
        then Some (key, Sweep.materialize_trace ~base ~model ~axis ~x)
        else None)
      (List.rev !reps)
  in
  (* Pack the cached traces into one shared off-heap slab per column: every
     domain replays through zero-copy windows of three allocations instead
     of one column triple per trace.  Content (and hence every replayed
     stream) is unchanged. *)
  List.combine (List.map fst cached)
    (Smbm_traffic.Trace.Compact.pack (List.map snd cached))

(* The one sweep runner: prematerialize, then [Sweep.run_point] over the
   tasks on the pool, results in submission order.  With [trace_cap] every
   task records into a private ring created inside the task (scope
   [x=<x>]), so recording never crosses domains and the dumped events are
   the same for every [jobs] value and any worker schedule. *)
let run_tasks ?jobs ?on_tick ?on_timing ?trace_cap tasks =
  let traces = prematerialize tasks in
  let jobs = match jobs with Some j -> j | None -> Pool.default_jobs () in
  Pool.with_pool ?on_tick ~jobs (fun pool ->
      let results =
        Pool.map pool
          (fun ({ base; model; axis; x } as task) ->
            let events =
              Option.map
                (fun cap ->
                  Smbm_obs.Flight.create ~scope:(Printf.sprintf "x=%d" x) ~cap
                    ())
                trace_cap
            in
            let ratios =
              Sweep.run_point ?events
                ?trace:(List.assoc_opt (trace_key task) traces)
                ~base ~model ~axis ~x ()
            in
            ( ratios,
              Option.map
                (fun ev -> (Smbm_obs.Flight.dump ev, Smbm_obs.Flight.dropped ev))
                events ))
          tasks
      in
      Option.iter (fun g -> g (Pool.timing pool)) on_timing;
      results)

(* Every point of [panels] in one batch, each panel's results peeled off
   the front of the submission-ordered list. *)
let run_panel_list ?jobs ?on_tick ?on_timing ?trace_cap ~base panels =
  let results =
    ref
      (run_tasks ?jobs ?on_tick ?on_timing ?trace_cap
         (List.concat_map
            (fun (p : Sweep.panel) ->
              List.map (fun x -> { base; model = p.model; axis = p.axis; x }) p.xs)
            panels))
  in
  List.map
    (fun (p : Sweep.panel) ->
      ( p,
        List.map
          (fun x ->
            match !results with
            | r :: rest ->
              results := rest;
              (x, r)
            | [] -> assert false)
          p.xs ))
    panels

let outcome (panel, points) =
  {
    Sweep.panel;
    points = List.map (fun (x, (ratios, _)) -> { Sweep.x; ratios }) points;
  }

let run_points ?jobs ?on_tick ?on_timing ~base ~model ~axis ~xs () =
  List.combine xs
    (List.map fst
       (run_tasks ?jobs ?on_tick ?on_timing
          (List.map (fun x -> { base; model; axis; x }) xs)))

let panel_of ?xs number =
  let panel = Sweep.panel number in
  match xs with Some xs -> { panel with Sweep.xs } | None -> panel

let run_panels ?jobs ?on_tick ?on_timing ?(base = Sweep.default_base) numbers =
  List.map outcome
    (run_panel_list ?jobs ?on_tick ?on_timing ~base
       (List.map (fun n -> panel_of n) numbers))

let run_panel ?jobs ?on_tick ?on_timing ?(base = Sweep.default_base) ?xs number
    =
  outcome
    (List.hd
       (run_panel_list ?jobs ?on_tick ?on_timing ~base [ panel_of ?xs number ]))

type traced = {
  outcome : Sweep.outcome;
  events : Smbm_obs.Event.t list;
  dropped_events : int;
}

let default_trace_cap = 65_536

let run_panel_traced ?jobs ?on_tick ?on_timing ?(trace_cap = default_trace_cap)
    ?(base = Sweep.default_base) ?xs number =
  let ((_, points) as panel) =
    List.hd
      (run_panel_list ?jobs ?on_tick ?on_timing ~trace_cap ~base
         [ panel_of ?xs number ])
  in
  let recorded = List.filter_map (fun (_, (_, r)) -> r) points in
  {
    outcome = outcome panel;
    events = List.concat_map fst recorded;
    dropped_events = List.fold_left (fun acc (_, d) -> acc + d) 0 recorded;
  }

let run_point_replicated ?jobs ?on_tick ?on_timing ~base ~model ~axis ~x ~seeds
    () =
  if seeds = [] then invalid_arg "Par_sweep.run_point_replicated: no seeds";
  Sweep.aggregate_replicates
    (List.map fst
       (run_tasks ?jobs ?on_tick ?on_timing
          (List.map
             (fun seed -> { base = { base with Sweep.seed }; model; axis; x })
             seeds)))
