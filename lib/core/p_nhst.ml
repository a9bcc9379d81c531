let threshold config i =
  let z = Proc_config.inverse_work_sum config in
  float_of_int config.Proc_config.buffer
  /. (float_of_int (Proc_config.work config i) *. z)

let make config =
  let thresholds =
    Array.init (Proc_config.n config) (fun i -> threshold config i)
  in
  Policy.make ~name:"NHST" ~push_out:false (fun sw ~dest ~value:_ ->
      if Proc_switch.is_full sw then Decision.drop
      else if float_of_int (Proc_switch.queue_length sw dest) < thresholds.(dest)
      then Decision.accept
      else Decision.drop)
