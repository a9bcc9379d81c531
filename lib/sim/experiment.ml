type t = {
  slots : int;
  flush_every : int option;
  check_every : int option;
}

let default = { slots = 200_000; flush_every = Some 10_000; check_every = None }

let run ?(params = default) ~workload instances =
  if params.slots < 0 then invalid_arg "Experiment.run: negative slot count";
  let due every slot =
    match every with
    | Some n when n > 0 -> (slot + 1) mod n = 0
    | Some _ | None -> false
  in
  (* One reusable struct-of-arrays batch per run, instances in an array:
     the slot loop allocates nothing in steady state. *)
  let insts = Array.of_list instances in
  let batch = Smbm_core.Arrival_batch.create () in
  for slot = 0 to params.slots - 1 do
    Smbm_traffic.Workload.next_into workload batch;
    for i = 0 to Array.length insts - 1 do
      Instance.step_batch (Array.unsafe_get insts i) ~batch
    done;
    if due params.flush_every slot then
      Array.iter (fun (i : Instance.t) -> i.flush ()) insts;
    if due params.check_every slot then
      Array.iter (fun (i : Instance.t) -> i.check ()) insts
  done;
  (* End-of-run conservation audit: every instance's counters must balance
     even when no flush or check interval was configured. *)
  List.iter
    (fun (i : Instance.t) -> Metrics.check_conservation i.metrics)
    instances

let ratio ~objective ~opt ~alg =
  let top = Metrics.throughput_of objective (opt : Instance.t).metrics in
  let bottom = Metrics.throughput_of objective (alg : Instance.t).metrics in
  if bottom = 0 then if top = 0 then 1.0 else infinity
  else float_of_int top /. float_of_int bottom

let ratios ~objective ~opt ~algs =
  List.map
    (fun (alg : Instance.t) -> (alg.name, ratio ~objective ~opt ~alg))
    algs
