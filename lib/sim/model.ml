open Smbm_core
open Smbm_traffic

type t =
  | Proc of Proc_config.t
  | Value_uniform of Value_config.t
  | Value_port of Value_config.t

let name = function
  | Proc _ -> "proc"
  | Value_uniform _ -> "value-uniform"
  | Value_port _ -> "value-port"

let objective = function
  | Proc config when Proc_config.unit_priced config -> `Packets
  | Proc _ | Value_uniform _ | Value_port _ -> `Value

let ports = function
  | Proc config -> Proc_config.n config
  | Value_uniform config | Value_port config -> Value_config.n config

(* A unit-priced engine stores every packet at 1, so any recorded value
   replays. *)
let max_trace_value = function
  | Proc config when Proc_config.unit_priced config -> max_int
  | Proc config -> config.Proc_config.max_value
  | Value_uniform config | Value_port config -> config.Value_config.max_value

let with_buffer t buffer =
  let value (c : Value_config.t) =
    Value_config.make ~ports:c.ports ~max_value:c.max_value ~buffer
      ~speedup:c.speedup ()
  in
  match t with
  | Proc c ->
    Proc
      (Proc_config.make ~works:(Array.copy c.works) ~buffer ~speedup:c.speedup
         ~max_value:c.max_value ())
  | Value_uniform c -> Value_uniform (value c)
  | Value_port c -> Value_port (value c)

let workload ?mmpp ?reference t ~load ~seed =
  let other () = invalid_arg "Model.workload: the reference is another model" in
  match t with
  | Proc config ->
    let reference =
      Option.map (function Proc c -> c | _ -> other ()) reference
    in
    Scenario.proc_workload ?mmpp ?reference ~config ~load ~seed ()
  | Value_uniform config | Value_port config ->
    let reference =
      Option.map
        (function Value_uniform c | Value_port c -> c | Proc _ -> other ())
        reference
    in
    let preset =
      match t with
      | Value_port _ -> Scenario.value_port_workload
      | _ -> Scenario.value_uniform_workload
    in
    preset ?mmpp ?reference ~config ~load ~seed ()

let offered_load t trace =
  match t with
  | Proc config -> Trace_stats.offered_load config trace
  | Value_uniform c | Value_port c ->
    (* Every packet takes one transmission: a switch of unit works. *)
    Trace_stats.offered_load
      (Proc_config.uniform ~n:(Value_config.n c) ~work:1 ~buffer:c.buffer
         ~speedup:c.speedup ())
      trace

(* Only the value-per-port model knows each port's value, so only it offers
   the reversed-threshold NHST. *)
let port_value = function
  | Value_port config -> Some (Scenario.port_values config)
  | Proc _ | Value_uniform _ -> None

let instances ?events ?distributions t =
  match t with
  | Proc config ->
    Opt_ref.proc_instance ?events ?distributions config
    :: List.map
         (Engine.Proc.instance ?events ?distributions config)
         (Policies.proc config)
  | Value_uniform config | Value_port config ->
    let policies =
      match port_value t with
      | Some port_value -> Policies.value_port ~port_value config
      | None -> Policies.value_uniform config
    in
    Opt_ref.value_instance ?events ?distributions config
    :: List.map (Engine.Value.instance ?events ?distributions config) policies

let proc_policy t name =
  match t with
  | Proc config -> Policies.proc_find config name
  | Value_uniform _ | Value_port _ -> None

let value_policy t name =
  match t with
  | Value_uniform config | Value_port config ->
    Policies.value_find ?port_value:(port_value t) config name
  | Proc _ -> None

let instance ?events t name =
  match t with
  | Proc config ->
    Option.map (Engine.Proc.instance ?events config) (proc_policy t name)
  | Value_uniform config | Value_port config ->
    Option.map (Engine.Value.instance ?events config) (value_policy t name)
