open Smbm_prelude

let admits ~buffer ~lengths ~dest =
  let n = Array.length lengths in
  let li = lengths.(dest) in
  let m = ref 0 and sum = ref 0 in
  Array.iter
    (fun l ->
      if l >= li then begin
        incr m;
        sum := !sum + l
      end)
    lengths;
  float_of_int !sum < float_of_int buffer /. Harmonic.h n *. Harmonic.h !m

let make config =
  let n = Proc_config.n config in
  let buffer = config.Proc_config.buffer in
  let lengths = Array.make n 0 in
  Proc_policy.make ~name:"NHDT" ~push_out:false (fun sw ~dest ~value:_ ->
      if Proc_switch.is_full sw then Decision.Drop
      else begin
        for i = 0 to n - 1 do
          lengths.(i) <- Proc_switch.queue_length sw i
        done;
        if admits ~buffer ~lengths ~dest then Decision.Accept else Decision.Drop
      end)
