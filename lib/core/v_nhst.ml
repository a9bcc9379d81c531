let share ~reversed ~k v =
  if reversed then k - v + 1 else v

let threshold ~reversed ~port_value ~buffer i =
  let k = Array.fold_left max 1 port_value in
  let z =
    Array.fold_left
      (fun acc v -> acc +. (1.0 /. float_of_int (share ~reversed ~k v)))
      0.0 port_value
  in
  float_of_int buffer /. (float_of_int (share ~reversed ~k port_value.(i)) *. z)

let make ?(reversed = true) ~port_value config =
  if Array.length port_value <> Value_config.n config then
    invalid_arg "V_nhst.make: port_value size mismatch";
  let buffer = config.Value_config.buffer in
  let thresholds =
    Array.init (Array.length port_value) (fun i ->
        threshold ~reversed ~port_value ~buffer i)
  in
  let name = if reversed then "NHST" else "NHST-direct" in
  Policy.make ~name ~push_out:false (fun sw ~dest ~value:_ ->
      if Value_switch.is_full sw then Decision.drop
      else if float_of_int (Value_switch.queue_length sw dest) < thresholds.(dest)
      then Decision.accept
      else Decision.drop)
