let proc config =
  [
    P_nhst.make config;
    P_nest.make config;
    P_nhdt.make config;
    P_lqd.make config;
    P_bpd.make config;
    P_bpd.make ~protect_last:true config;
    P_lwd.make config;
  ]

let proc_extended config =
  let half_partition =
    config.Proc_config.buffer / (2 * Proc_config.n config)
  in
  proc config
  @ [
      P_lwd.make ~protect_last:true config;
      P_lwd.make ~tie:P_lwd.Smallest_work config;
      P_lwd.make ~tie:P_lwd.Longest_queue config;
      P_reserved.make ~reserve:half_partition config;
      P_rand.make config;
    ]

let hybrid_greedy =
  Policy.make ~name:"Greedy" ~push_out:false (fun sw ~dest:_ ~value:_ ->
      if Proc_switch.is_full sw then Decision.drop else Decision.accept)

let value_aware config =
  [ P_mvd.make config; P_wvd.make config; P_dpk.make config ]

let hybrid config =
  hybrid_greedy
  :: [ P_nest.make config; P_lqd.make config; P_lwd.make config ]
  @ value_aware config

let proc_find config name =
  Policy.find name
    (proc_extended config @ (hybrid_greedy :: value_aware config))

let value_uniform config =
  [
    V_greedy.make config;
    V_nest.make config;
    V_lqd.make config;
    V_mvd.make config;
    V_mvd.make ~protect_last:true config;
    V_mrd.make config;
  ]

let value_port ~port_value config =
  value_uniform config @ [ V_nhst.make ~port_value config ]

let value_extended config =
  value_uniform config
  @ [ V_mrd.make ~protect_last:true config; P_rand.make_value config ]

let value_find ?port_value config name =
  let nhst =
    match port_value with
    | Some port_value -> [ V_nhst.make ~port_value config ]
    | None -> []
  in
  Policy.find name (value_extended config @ nhst)
