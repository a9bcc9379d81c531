(* argmax over queues of (virtual length, work, index); the virtual length
   counts the arriving packet as already added to [dest], and full ties keep
   the largest index (the decision contract a left-to-right scan with
   replacement on [key >= best] realises — the test-side oracle).

   One pass over the switch's own (queue length, port work) columns,
   seeded with [dest] at its virtual length: the work column is read only
   on an exact length tie, and since the incumbent may sit at a larger
   index than [j], the index tie is compared explicitly.  All key
   comparisons are explicit integer comparisons. *)

let select (v : Proc_switch.view) ~dest =
  let qlen = v.view_qlen and works = v.view_works in
  let best = ref dest
  and blen = ref (qlen.(dest) + 1)
  and bwork = ref works.(dest) in
  for j = 0 to Array.length qlen - 1 do
    let l = Array.unsafe_get qlen j in
    if l >= !blen && j <> dest then begin
      let w = Array.unsafe_get works j in
      if l > !blen || w > !bwork || (w = !bwork && j > !best) then begin
        best := j;
        blen := l;
        bwork := w
      end
    end
  done;
  !best

let select_victim sw ~dest = select (Proc_switch.view sw) ~dest

let make _config =
  Policy.make ~name:"LQD" ~push_out:true (fun sw ~dest ~value:_ ->
      if not (Proc_switch.is_full sw) then Decision.accept
      else
        let victim = select (Proc_switch.view sw) ~dest in
        if victim <> dest then Decision.push_out victim else Decision.drop)
