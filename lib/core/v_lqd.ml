(* argmax over queues of virtual length; ties towards the smaller minimum
   value, then the larger index — lexicographic (length, -min_value, index),
   with the arriving packet counted as already added to [dest] (a
   left-to-right scan with replacement on [key >= best] — the test-side
   oracle).

   One pass over the switch's length column, seeded with [dest] at its
   virtual length.  A port's minimum costs a bitset scan, so it is read
   only on an exact length tie, and the incumbent's at most once ([bmin]
   is [-1] until read; a minimum is >= 1, [max_int] for an empty queue).
   All comparisons are explicit integer comparisons. *)

let min_of v j = Value_switch.view_min_value_or v j ~default:max_int

let select (v : Value_switch.view) ~dest =
  let qlen = v.view_qlen in
  let best = ref dest and blen = ref (qlen.(dest) + 1) and bmin = ref (-1) in
  for j = 0 to Array.length qlen - 1 do
    let l = Array.unsafe_get qlen j in
    if l > !blen then begin
      best := j;
      blen := l;
      bmin := -1
    end
    else if l = !blen && j <> dest then begin
      if !bmin < 0 then bmin := min_of v !best;
      let m = min_of v j in
      if m < !bmin || (m = !bmin && j > !best) then begin
        best := j;
        bmin := m
      end
    end
  done;
  !best

let select_victim sw ~dest = select (Value_switch.view sw) ~dest

let make _config =
  Policy.make ~name:"LQD" ~push_out:true (fun sw ~dest ~value ->
      if not (Value_switch.is_full sw) then Decision.accept
      else
        let v = Value_switch.view sw in
        let victim = select v ~dest in
        if victim <> dest then Decision.push_out victim
        else if min_of v dest < value then Decision.push_out dest
        else Decision.drop)
