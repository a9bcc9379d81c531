let make _config =
  Policy.make ~name:"Greedy" ~push_out:false (fun sw ~dest:_ ~value:_ ->
      if Value_switch.is_full sw then Decision.drop else Decision.accept)
