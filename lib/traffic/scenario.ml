open Smbm_prelude
open Smbm_core

type mmpp_params = {
  sources : int;
  p_on_to_off : float;
  p_off_to_on : float;
}

let default_mmpp =
  { sources = 500; p_on_to_off = 0.1; p_off_to_on = 1.0 /. 30.0 }

let duty_cycle p =
  Rng.Bank.stationary_on ~p_on_to_off:p.p_on_to_off ~p_off_to_on:p.p_off_to_on

let workload ~mmpp ~label ~emission ~seed =
  Workload.of_bank
    (Source_bank.create ~rng:(Rng.create ~seed) ~sources:mmpp.sources
       ~p_on_to_off:mmpp.p_on_to_off ~p_off_to_on:mmpp.p_off_to_on ~emission
       ~label)

let check_load load =
  if not (Float.is_finite load && load >= 0.0) then
    invalid_arg
      (Printf.sprintf "Scenario: load must be finite and >= 0, got %h" load)

(* Per-source on-state rate yielding an aggregate packet rate of
   [aggregate] packets per slot.  With no source ever on, no rate delivers
   it and none is ever drawn: 0. *)
let rate_for ~mmpp ~aggregate =
  let on_sources = float_of_int mmpp.sources *. duty_cycle mmpp in
  if on_sources = 0.0 then 0.0 else aggregate /. on_sources

(* Offered packets per slot of a processing-model [load] against
   [reference]'s capacity, counting each packet at its port's mean work. *)
let proc_aggregate ~reference ~load =
  check_load load;
  let n = Proc_config.n reference in
  let mean_work =
    float_of_int (Array.fold_left ( + ) 0 reference.Proc_config.works)
    /. float_of_int n
  in
  let capacity = float_of_int (n * reference.Proc_config.speedup) in
  load *. capacity /. mean_work

let proc_workload ?(mmpp = default_mmpp) ?reference ~config ~load ~seed () =
  let reference = Option.value reference ~default:config in
  let aggregate = proc_aggregate ~reference ~load in
  workload ~mmpp ~label:(Label.uniform_port ~n:(Proc_config.n config))
    ~emission:(Poisson (rate_for ~mmpp ~aggregate)) ~seed

let value_workload ~mmpp ~reference ~config ~load ~seed ~label =
  check_load load;
  let reference = Option.value reference ~default:config in
  let capacity =
    float_of_int (Value_config.n reference * reference.Value_config.speedup)
  in
  let aggregate = load *. capacity in
  workload ~mmpp ~label ~emission:(Poisson (rate_for ~mmpp ~aggregate)) ~seed

let value_uniform_workload ?(mmpp = default_mmpp) ?reference ~config ~load
    ~seed () =
  let label =
    Label.uniform_port_and_value ~n:(Value_config.n config)
      ~k:(Value_config.k config)
  in
  value_workload ~mmpp ~reference ~config ~load ~seed ~label

let value_port_workload ?(mmpp = default_mmpp) ?reference ~config ~load ~seed
    () =
  if Value_config.n config > Value_config.k config then
    invalid_arg "Scenario.value_port_workload: requires n <= k";
  let label = Label.value_equals_port ~n:(Value_config.n config) in
  value_workload ~mmpp ~reference ~config ~load ~seed ~label

let value_port_flood_workload ?(mmpp = default_mmpp) ?(skew = 2.0) ~config
    ~load ~seed () =
  if Value_config.n config > Value_config.k config then
    invalid_arg "Scenario.value_port_flood_workload: requires n <= k";
  let n = Value_config.n config in
  let weights =
    Array.init n (fun i -> Float.pow (float_of_int (n - i)) skew)
  in
  let label =
    Label.weighted_port ~weights ~value_of_port:(fun i -> i + 1) ()
  in
  value_workload ~mmpp ~reference:None ~config ~load ~seed ~label

let proc_heavy_tail_workload ?(mmpp = default_mmpp) ?(alpha = 1.2)
    ?(max_batch = 1000) ?reference ~config ~load ~seed () =
  let reference = Option.value reference ~default:config in
  let aggregate = proc_aggregate ~reference ~load in
  workload ~mmpp ~label:(Label.uniform_port ~n:(Proc_config.n config))
    ~emission:(Heavy_tail { alpha; max_batch; mean = rate_for ~mmpp ~aggregate })
    ~seed

let port_values config = Array.init (Value_config.n config) (fun i -> i + 1)
