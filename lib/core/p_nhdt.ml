open Smbm_prelude

(* thresholds.(m) = (B / H_n) * H_m for m = 0..n, computed once with the
   admission test's own expression, so a table read is bit-identical to
   evaluating it per arrival. *)
let thresholds ~buffer ~n =
  let hn = Harmonic.h n in
  Array.init (n + 1) (fun m -> float_of_int buffer /. hn *. Harmonic.h m)

(* One pass over a length column: the live switch's own (its view) or a
   test's array. *)
let admits_in thr lengths ~dest =
  let li = lengths.(dest) in
  let m = ref 0 and sum = ref 0 in
  for j = 0 to Array.length lengths - 1 do
    let l = Array.unsafe_get lengths j in
    if l >= li then begin
      incr m;
      sum := !sum + l
    end
  done;
  float_of_int !sum < thr.(!m)

let admits ~buffer ~lengths ~dest =
  admits_in (thresholds ~buffer ~n:(Array.length lengths)) lengths ~dest

let make config =
  let n = Proc_config.n config in
  let thr = thresholds ~buffer:config.Proc_config.buffer ~n in
  Policy.make ~name:"NHDT" ~push_out:false (fun sw ~dest ~value:_ ->
      if
        (not (Proc_switch.is_full sw))
        && admits_in thr (Proc_switch.view sw).view_qlen ~dest
      then Decision.accept
      else Decision.drop)
