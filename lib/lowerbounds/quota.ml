open Smbm_core

let proc ?(name = "OPT*") ~quota () =
  Policy.make ~name ~push_out:false (fun sw ~dest ~value:_ ->
      if Proc_switch.is_full sw then Decision.drop
      else if Proc_switch.queue_length sw dest < quota dest then Decision.accept
      else Decision.drop)

let value ?(name = "OPT*") ~quota () =
  Policy.make ~name ~push_out:false (fun sw ~dest ~value:_ ->
      if Value_switch.is_full sw then Decision.drop
      else if Value_switch.queue_length sw dest < quota dest then
        Decision.accept
      else Decision.drop)
