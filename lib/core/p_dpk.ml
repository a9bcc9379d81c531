(* argmin over non-empty queues of the tail packet's density
   value / port work, ties toward the smaller port index (a left-to-right
   scan replacing only on a strictly smaller density: the test-side
   oracle) — that is, argmax of port work / tail value, compared
   cross-multiplied.

   One pass over the length and port-work columns.  The tail value is the
   primary key and lives in the queue's FIFO ring, not in a column, so it
   is read for every non-empty queue and for no empty one. *)

let select sw (v : Proc_switch.view) =
  let qlen = v.view_qlen and works = v.view_works in
  let best = ref (-1) and bw = ref 0 and bt = ref 1 in
  for j = 0 to Array.length qlen - 1 do
    if Array.unsafe_get qlen j > 0 then begin
      let t = Proc_switch.tail_value sw j and w = Array.unsafe_get works j in
      if !best < 0 || w * !bt > !bw * t then begin
        best := j;
        bw := w;
        bt := t
      end
    end
  done;
  !best

let make _config =
  Policy.make ~name:"DPK" ~push_out:true (fun sw ~dest ~value ->
      if not (Proc_switch.is_full sw) then Decision.accept
      else
        (* Densities compared cross-multiplied: the arrival's
           value / work(dest) must beat the victim's strictly. *)
        let victim = select sw (Proc_switch.view sw) in
        if
          victim >= 0
          && value * Proc_switch.port_work sw victim
             > Proc_switch.tail_value sw victim * Proc_switch.port_work sw dest
        then Decision.push_out victim
        else Decision.drop)
