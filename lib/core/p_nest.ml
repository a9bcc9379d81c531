let make config =
  let n = Proc_config.n config in
  let b = config.Proc_config.buffer in
  Policy.make ~name:"NEST" ~push_out:false (fun sw ~dest ~value:_ ->
      if Proc_switch.is_full sw then Decision.drop
        (* |Q_i| < B / n, in exact integer arithmetic *)
      else if Proc_switch.queue_length sw dest * n < b then Decision.accept
      else Decision.drop)
