open Smbm_sim

type measured = {
  alg_throughput : int;
  opt_throughput : int;
  ratio : float;
}

let episodic ~episode ~burst ~trickle slot =
  let t = slot mod episode in
  if t = 0 then burst else trickle t

let burst h a = List.init h (fun _ -> a)

let measure ~objective ~(alg : Instance.t) ~(opt : Instance.t) =
  let alg_throughput = Metrics.throughput_of objective alg.metrics
  and opt_throughput = Metrics.throughput_of objective opt.metrics in
  let ratio =
    if alg_throughput = 0 then
      if opt_throughput = 0 then 1.0 else infinity
    else float_of_int opt_throughput /. float_of_int alg_throughput
  in
  { alg_throughput; opt_throughput; ratio }

let params ~slots ~flush_every =
  { Experiment.slots; flush_every; check_every = None }

let run_proc ~config ~alg ~opt ~trace ~slots ?flush_every () =
  let alg = Engine.Proc.instance config alg
  and opt = Engine.Proc.instance ~name:"OPT*" config opt in
  let workload = Smbm_traffic.Workload.of_fun trace in
  Experiment.run ~params:(params ~slots ~flush_every) ~workload [ alg; opt ];
  measure ~objective:`Packets ~alg ~opt

let run_value ~config ~alg ~opt ~trace ~slots ?flush_every () =
  let alg = Engine.Value.instance config alg
  and opt = Engine.Value.instance ~name:"OPT*" config opt in
  let workload = Smbm_traffic.Workload.of_fun trace in
  Experiment.run ~params:(params ~slots ~flush_every) ~workload [ alg; opt ];
  measure ~objective:`Value ~alg ~opt

let measure_many ?jobs ?on_tick measures =
  let jobs =
    match jobs with Some j -> j | None -> Smbm_par.Pool.default_jobs ()
  in
  Smbm_par.Pool.with_pool ?on_tick ~jobs (fun pool ->
      Smbm_par.Pool.map pool (fun f -> f ()) measures)
