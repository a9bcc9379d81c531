open Smbm_prelude

let pick_nonempty rng ~n ~length sw ~dest =
  (* Reservoir-sample a uniform index among queues that are non-empty or the
     (virtually occupied) destination.

     Deliberately NOT routed through the switch's incremental victim
     indexes: reservoir sampling draws one random number per candidate, so
     the rng stream consumption — and with it every subsequent random
     decision — depends on the number of non-empty queues at each arrival.
     Any O(log n) replacement (e.g. sampling a rank and selecting against a
     count index) would draw differently and change the policy's decision
     trace.  RAND is a baseline, not a hot-path policy; bit-identical
     replay matters more than its scan cost. *)
  let chosen = ref (-1) and seen = ref 0 in
  for j = 0 to n - 1 do
    if length sw j > 0 || j = dest then begin
      incr seen;
      if Rng.int rng !seen = 0 then chosen := j
    end
  done;
  !chosen

let make ?(seed = 0x5eed) _config =
  let rng = Rng.create ~seed in
  Policy.make ~name:"RAND" ~push_out:true (fun sw ~dest ~value:_ ->
      if not (Proc_switch.is_full sw) then Decision.accept
      else
        let victim =
          pick_nonempty rng ~n:(Proc_switch.n sw)
            ~length:Proc_switch.queue_length sw ~dest
        in
        if victim <> dest then Decision.push_out victim else Decision.drop)

let make_value ?(seed = 0x5eed) _config =
  let rng = Rng.create ~seed in
  Policy.make ~name:"RAND" ~push_out:true (fun sw ~dest ~value ->
      if not (Value_switch.is_full sw) then Decision.accept
      else if Value_switch.min_value_or sw ~default:max_int <= value then
        let victim =
          pick_nonempty rng ~n:(Value_switch.n sw)
            ~length:Value_switch.queue_length sw ~dest
        in
        if victim <> dest && Value_switch.queue_length sw victim > 0 then
          Decision.push_out victim
        else Decision.drop
      else Decision.drop)
