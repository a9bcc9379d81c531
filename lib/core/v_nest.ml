let make config =
  let n = Value_config.n config in
  let b = config.Value_config.buffer in
  Policy.make ~name:"NEST" ~push_out:false (fun sw ~dest ~value:_ ->
      if Value_switch.is_full sw then Decision.drop
      else if Value_switch.queue_length sw dest * n < b then Decision.accept
      else Decision.drop)
