(* argmax over eligible queues of (per-packet work, length, index); no
   virtual add — BPD's victim does not depend on the arrival.  Full ties
   keep the largest index (a left-to-right scan with replacement on
   [key >= best] — the test-side oracle, which this pass is).

   One pass over the switch's own (length, port work) columns; a queue is
   eligible with [min_len] packets or more. *)

let select ~protect_last (v : Proc_switch.view) =
  let min_len = if protect_last then 2 else 1 in
  let qlen = v.view_qlen and works = v.view_works in
  let best = ref (-1) and bw = ref min_int and bl = ref min_int in
  for j = 0 to Array.length qlen - 1 do
    let l = Array.unsafe_get qlen j in
    if l >= min_len then begin
      let w = Array.unsafe_get works j in
      if w > !bw || (w = !bw && l >= !bl) then begin
        best := j;
        bw := w;
        bl := l
      end
    end
  done;
  !best

let select_victim ~protect_last sw = select ~protect_last (Proc_switch.view sw)

let make ?(protect_last = false) _config =
  let name = if protect_last then "BPD1" else "BPD" in
  Policy.make ~name ~push_out:true (fun sw ~dest ~value:_ ->
      if not (Proc_switch.is_full sw) then Decision.accept
      else
        let victim = select ~protect_last (Proc_switch.view sw) in
        if victim < 0 then Decision.drop
        else
          (* "i <= j" in the work-sorted port order, i.e. the arriving
             packet's (work, port) does not come after the victim's. *)
          let aw = Proc_switch.port_work sw dest
          and vw = Proc_switch.port_work sw victim in
          if aw < vw || (aw = vw && dest <= victim) then
            Decision.push_out victim
          else Decision.drop)
