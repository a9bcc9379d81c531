open Smbm_core

let finite_bound ~k = float_of_int k
let asymptotic_bound ~k = float_of_int k

let measure ?(k = 16) ?(buffer = 64) ?(episodes = 5) () =
  let config = Value_config.make ~ports:2 ~max_value:k ~buffer () in
  let burst =
    Runner.burst buffer (Arrival.make ~dest:0 ~value:1 ())
    @ Runner.burst buffer (Arrival.make ~dest:1 ~value:k ())
  in
  let episode = buffer in
  let trace = Runner.episodic ~episode ~burst ~trickle:(fun _ -> []) in
  let greedy =
    Policy.make ~name:"Greedy" ~push_out:false (fun sw ~dest:_ ~value:_ ->
        if Value_switch.is_full sw then Decision.drop else Decision.accept)
  in
  let quota dest = if dest = 1 then buffer else 0 in
  Runner.run_value ~config ~alg:greedy ~opt:(Quota.value ~quota ()) ~trace
    ~slots:(episodes * episode) ~flush_every:episode ()
