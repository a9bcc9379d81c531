open Smbm_sim

let split_seeds ~seed n =
  let module Rng = Smbm_prelude.Rng in
  let parent = Rng.create ~seed in
  List.init n (fun _ -> Int64.to_int (Rng.bits64 (Rng.split parent)))

let with_pool ?jobs ?on_tick ?on_timing f =
  let jobs = match jobs with Some j -> j | None -> Pool.default_jobs () in
  Pool.with_pool ?on_tick ~jobs (fun pool ->
      let result = f pool in
      (match on_timing with
      | None -> ()
      | Some g -> g (Pool.timing pool));
      result)

(* Trace prematerialization: before sharding the points, every trace key
   used by >= 2 tasks (and within the size budget) is materialized once on
   the caller, and the resulting immutable compact traces are shared
   read-only by all point tasks across domains.  Keys are deterministic
   functions of the task parameters, so the set of materialized traces (and
   every replayed stream) is independent of [jobs] and of worker
   scheduling.  Materializing outside the pool keeps [on_tick] counting
   simulations only. *)
let prematerialize ?(max_cached_arrivals = Sweep.default_max_cached_arrivals)
    ~base tasks =
  let counts = Hashtbl.create 16 in
  let reps = ref [] in
  List.iter
    (fun ((model : Sweep.model), (axis : Sweep.axis), x) ->
      let key = Sweep.trace_key ~base ~model ~axis ~x in
      match Hashtbl.find_opt counts key with
      | None ->
        Hashtbl.replace counts key 1;
        reps := (key, (model, axis, x)) :: !reps
      | Some n -> Hashtbl.replace counts key (n + 1))
    tasks;
  let cached =
    List.filter_map
      (fun (key, (model, axis, x)) ->
        if
          Hashtbl.find counts key >= 2
          && Sweep.trace_worth_caching ~max_arrivals:max_cached_arrivals ~base
               ~model ~axis ~x ()
        then Some (key, Sweep.materialize_trace ~base ~model ~axis ~x)
        else None)
      (List.rev !reps)
  in
  (* Pack the cached traces into one shared off-heap slab per column: every
     domain replays through zero-copy windows of three allocations instead
     of one column triple per trace.  Content (and hence every replayed
     stream) is unchanged. *)
  let keys = List.map fst cached in
  List.combine keys
    (Smbm_traffic.Trace.Compact.pack (List.map snd cached))

let find_trace traces ~base ~model ~axis ~x =
  List.assoc_opt (Sweep.trace_key ~base ~model ~axis ~x) traces

let run_points ?jobs ?on_tick ?on_timing ?spans ?max_cached_arrivals ~base
    ~model ~axis ~xs () =
  let traces =
    prematerialize ?max_cached_arrivals ~base
      (List.map (fun x -> (model, axis, x)) xs)
  in
  with_pool ?jobs ?on_tick ?on_timing (fun pool ->
      Pool.map pool
        (fun x ->
          ( x,
            Sweep.run_point ?spans
              ?trace:(find_trace traces ~base ~model ~axis ~x)
              ~base ~model ~axis ~x () ))
        xs)

let panel_of ?base ?xs number =
  let base = Option.value base ~default:Sweep.default_base in
  let panel = Sweep.panel number in
  let panel = match xs with Some xs -> { panel with Sweep.xs } | None -> panel in
  (base, panel)

let run_panel ?jobs ?on_tick ?on_timing ?spans ?max_cached_arrivals ?base ?xs
    number =
  let base, panel = panel_of ?base ?xs number in
  let points =
    run_points ?jobs ?on_tick ?on_timing ?spans ?max_cached_arrivals ~base
      ~model:panel.Sweep.model ~axis:panel.Sweep.axis ~xs:panel.Sweep.xs ()
    |> List.map (fun (x, ratios) -> { Sweep.x; ratios })
  in
  { Sweep.panel; points }

type traced = {
  outcome : Sweep.outcome;
  events : Smbm_obs.Event.t list;
  dropped_events : int;
}

let default_trace_cap = 65_536

(* Trace determinism: each task owns a private ring created inside the
   task, so recording never crosses domains; [Pool.map] returns task results
   in submission order, so concatenating the per-point event lists yields the
   same stream for every [jobs] value and any worker schedule. *)
let run_panel_traced ?jobs ?on_tick ?on_timing ?spans
    ?(trace_cap = default_trace_cap) ?max_cached_arrivals ?base ?xs number =
  let base, panel = panel_of ?base ?xs number in
  let model = panel.Sweep.model and axis = panel.Sweep.axis in
  let traces =
    prematerialize ?max_cached_arrivals ~base
      (List.map (fun x -> (model, axis, x)) panel.Sweep.xs)
  in
  let results =
    with_pool ?jobs ?on_tick ?on_timing (fun pool ->
        Pool.map pool
          (fun x ->
            let events =
              Smbm_obs.Flight.create
                ~scope:(Printf.sprintf "x=%d" x)
                ~cap:trace_cap ()
            in
            let ratios =
              Sweep.run_point ~events ?spans
                ?trace:(find_trace traces ~base ~model ~axis ~x)
                ~base ~model ~axis ~x ()
            in
            ( { Sweep.x; ratios },
              Smbm_obs.Flight.dump events,
              Smbm_obs.Flight.dropped events ))
          panel.Sweep.xs)
  in
  {
    outcome =
      { Sweep.panel; points = List.map (fun (p, _, _) -> p) results };
    events = List.concat_map (fun (_, es, _) -> es) results;
    dropped_events = List.fold_left (fun acc (_, _, d) -> acc + d) 0 results;
  }

let run_panels ?jobs ?on_tick ?on_timing ?max_cached_arrivals ?base numbers =
  let panels = List.map (fun n -> snd (panel_of ?base n)) numbers in
  let base = Option.value base ~default:Sweep.default_base in
  let tasks =
    List.concat_map
      (fun (p : Sweep.panel) -> List.map (fun x -> (p, x)) p.Sweep.xs)
      panels
  in
  (* Sharing is cross-panel: a model's B and C panels (and its K panel at
     the base point) all carry the same key, so a full Fig. 5 materializes
     one trace per model instead of generating 60-odd times. *)
  let traces =
    prematerialize ?max_cached_arrivals ~base
      (List.map
         (fun ((p : Sweep.panel), x) -> (p.Sweep.model, p.Sweep.axis, x))
         tasks)
  in
  let points =
    with_pool ?jobs ?on_tick ?on_timing (fun pool ->
        Pool.map pool
          (fun ((p : Sweep.panel), x) ->
            {
              Sweep.x;
              ratios =
                Sweep.run_point
                  ?trace:
                    (find_trace traces ~base ~model:p.Sweep.model
                       ~axis:p.Sweep.axis ~x)
                  ~base ~model:p.Sweep.model ~axis:p.Sweep.axis ~x ();
            })
          tasks)
  in
  (* Results come back in submission order: peel each panel's slice off the
     front. *)
  let rec reassemble panels points =
    match panels with
    | [] -> []
    | (p : Sweep.panel) :: rest ->
      let n = List.length p.Sweep.xs in
      let mine = List.filteri (fun i _ -> i < n) points in
      let others = List.filteri (fun i _ -> i >= n) points in
      { Sweep.panel = p; points = mine } :: reassemble rest others
  in
  reassemble panels points

let run_point_replicated ?jobs ?on_tick ?on_timing ~base ~model ~axis ~x ~seeds
    () =
  if seeds = [] then invalid_arg "Par_sweep.run_point_replicated: no seeds";
  let per_seed =
    with_pool ?jobs ?on_tick ?on_timing (fun pool ->
        Pool.map pool
          (fun seed ->
            Sweep.run_point ~base:{ base with Sweep.seed } ~model ~axis ~x ())
          seeds)
  in
  Sweep.aggregate_replicates per_seed
