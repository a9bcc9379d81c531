type outcome = {
  slots : int;
  violations : int;
  first_violation : int option;
  max_prefix_ratio : float;
  final_policy : int;
  final_opponent : int;
}

let run ~factor ?(objective = `Packets) ~workload ~slots ?flush_every ~policy
    ~opponent () =
  if factor <= 0.0 then invalid_arg "Competitive_check.run: factor <= 0";
  let violations = ref 0 in
  let first_violation = ref None in
  let max_ratio = ref 1.0 in
  let due slot =
    match flush_every with
    | Some n when n > 0 -> (slot + 1) mod n = 0
    | Some _ | None -> false
  in
  let batch = Smbm_core.Arrival_batch.create () in
  for slot = 0 to slots - 1 do
    Smbm_traffic.Workload.next_into workload batch;
    Instance.step_batch policy ~batch;
    Instance.step_batch opponent ~batch;
    let p = Metrics.throughput_of objective (policy : Instance.t).metrics in
    let o = Metrics.throughput_of objective (opponent : Instance.t).metrics in
    let ratio =
      if p = 0 then if o = 0 then 1.0 else infinity
      else float_of_int o /. float_of_int p
    in
    if ratio > !max_ratio then max_ratio := ratio;
    if float_of_int o > factor *. float_of_int p then begin
      incr violations;
      if !first_violation = None then first_violation := Some slot
    end;
    if due slot then begin
      policy.flush ();
      opponent.flush ()
    end
  done;
  {
    slots;
    violations = !violations;
    first_violation = !first_violation;
    max_prefix_ratio = !max_ratio;
    final_policy = Metrics.throughput_of objective (policy : Instance.t).metrics;
    final_opponent =
      Metrics.throughput_of objective (opponent : Instance.t).metrics;
  }

let certify_lwd ?(factor = 2.0) ~config ~workload ~slots ?flush_every
    ~opponent () =
  let policy = Engine.Proc.instance config (Smbm_core.P_lwd.make config) in
  let opponent = Engine.Proc.instance ~name:"opponent" config opponent in
  run ~factor ~workload ~slots ?flush_every ~policy ~opponent ()
