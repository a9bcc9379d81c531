open Smbm_core
open Smbm_traffic

type shard = { workload : Workload.t; batch : Arrival_batch.t }
type t = { shards : shard array; pool : Smbm_par.Pool.t option }

(* Distinct per-shard seeds, spread far apart so the per-source RNG streams
   derived from them do not collide across shards. *)
let shard_seed seed i = seed + (1000003 * (i + 1))

let create ?(mmpp = Scenario.default_mmpp) ?pool ?(shards = 1) model ~load
    ~seed () =
  if not (Float.is_finite load && load >= 0.0) then
    invalid_arg "Mmpp_bank.create: load must be finite and >= 0";
  if shards < 1 then invalid_arg "Mmpp_bank.create: shards must be >= 1";
  if shards > mmpp.Scenario.sources then
    invalid_arg "Mmpp_bank.create: more shards than sources";
  let base = mmpp.Scenario.sources / shards in
  let extra = mmpp.Scenario.sources mod shards in
  let total = float_of_int mmpp.Scenario.sources in
  let make i =
    let sources = base + if i < extra then 1 else 0 in
    let shard_mmpp = { mmpp with Scenario.sources } in
    (* Scale the normalized load by the shard's source share: the derived
       per-source on-state rate then matches the unsharded bank exactly. *)
    let shard_load = load *. float_of_int sources /. total in
    let seed = shard_seed seed i in
    let workload =
      Smbm_sim.Model.workload ~mmpp:shard_mmpp model ~load:shard_load ~seed
    in
    { workload; batch = Arrival_batch.create () }
  in
  { shards = Array.init shards make; pool }

let shards t = Array.length t.shards

let step_shard s = Workload.next_into s.workload s.batch

let fill t batch =
  match t.shards with
  | [| s |] -> Workload.next_into s.workload batch
  | shards ->
    (match t.pool with
    | Some pool ->
      ignore
        (Smbm_par.Pool.map pool step_shard (Array.to_list shards) : unit list)
    | None -> Array.iter step_shard shards);
    (* Append in shard order: the interleaving is a pure function of
       (seed, shards), never of the pool's schedule. *)
    Arrival_batch.clear batch;
    for i = 0 to Array.length shards - 1 do
      Arrival_batch.append batch shards.(i).batch
    done
