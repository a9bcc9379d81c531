open Smbm_prelude

(* thresholds.(m) = (B / H_n) * H_m for m = 0..n, computed once with the
   admission test's own expression, so a table read is bit-identical to
   evaluating it per arrival. *)
let thresholds ~buffer ~n =
  let hn = Harmonic.h n in
  Array.init (n + 1) (fun m -> float_of_int buffer /. hn *. Harmonic.h m)

(* One pass over local ints.  [length] is a top-level function (no closure
   is built per arrival) applied to [src]: the live switch or a test's
   length array. *)
let admits_in thr ~n ~length src ~dest =
  let li = length src dest in
  let m = ref 0 and sum = ref 0 in
  for j = 0 to n - 1 do
    let l = length src j in
    if l >= li then begin
      incr m;
      sum := !sum + l
    end
  done;
  float_of_int !sum < thr.(!m)

let admits ~buffer ~lengths ~dest =
  let n = Array.length lengths in
  admits_in (thresholds ~buffer ~n) ~n ~length:Array.get lengths ~dest

let make config =
  let n = Proc_config.n config in
  let thr = thresholds ~buffer:config.Proc_config.buffer ~n in
  Policy.make ~name:"NHDT" ~push_out:false (fun sw ~dest ~value:_ ->
      if
        (not (Proc_switch.is_full sw))
        && admits_in thr ~n ~length:Proc_switch.queue_length sw ~dest
      then Decision.accept
      else Decision.drop)
