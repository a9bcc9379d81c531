(* argmin over non-empty queues of the tail value — a FIFO queue's only
   evictable packet — ties toward the smaller port index (a left-to-right
   scan replacing only on a strictly smaller tail: the test-side oracle).

   The tail value is the key and lives in the queue's FIFO ring, not in a
   column, so the pass reads it for every non-empty queue and skips the
   empty ones off the length column. *)

let select sw (v : Proc_switch.view) =
  let qlen = v.view_qlen in
  let best = ref (-1) and bt = ref max_int in
  for j = 0 to Array.length qlen - 1 do
    if Array.unsafe_get qlen j > 0 then begin
      let t = Proc_switch.tail_value sw j in
      if t < !bt then begin
        best := j;
        bt := t
      end
    end
  done;
  !best

let make _config =
  Policy.make ~name:"MVD" ~push_out:true (fun sw ~dest:_ ~value ->
      if not (Proc_switch.is_full sw) then Decision.accept
      else
        let victim = select sw (Proc_switch.view sw) in
        if victim >= 0 && Proc_switch.tail_value sw victim < value then
          Decision.push_out victim
        else Decision.drop)
