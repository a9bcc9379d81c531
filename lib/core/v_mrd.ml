(* argmax over eligible queues of |Q_j| / avg_j, compared as
   |Qa|^2 * sum_b > |Qb|^2 * sum_a in exact integer arithmetic (values and
   sizes are bounded by B * k, far from overflow on 63-bit ints); equal
   ratios prefer the queue with the smaller minimum value, then the larger
   index.  The exact cross-multiplied comparison is a total order on
   eligible queues, so a left-to-right scan with that tie convention (the
   test-side oracle) and this pass pick the same victim.

   One pass over the switch's (length, value sum) columns.  A port's
   minimum costs a bitset scan, so it is read only on an exact ratio tie,
   and the incumbent's at most once ([bmin] is [-1] until read; an
   eligible queue's minimum is >= 1). *)

let min_of v j = Value_switch.view_min_value_or v j ~default:max_int

let select ~protect_last (v : Value_switch.view) =
  let min_len = if protect_last then 2 else 1 in
  let qlen = v.view_qlen and qsum = v.view_qsum in
  let best = ref (-1) and bl2 = ref 0 and bs = ref 0 and bmin = ref (-1) in
  for j = 0 to Array.length qlen - 1 do
    let l = Array.unsafe_get qlen j in
    if l >= min_len then begin
      let s = Array.unsafe_get qsum j in
      let x = l * l * !bs and y = !bl2 * s in
      if !best < 0 || x > y then begin
        best := j;
        bl2 := l * l;
        bs := s;
        bmin := -1
      end
      else if x = y then begin
        if !bmin < 0 then bmin := min_of v !best;
        let m = min_of v j in
        if m <= !bmin then begin
          best := j;
          bl2 := l * l;
          bs := s;
          bmin := m
        end
      end
    end
  done;
  !best

let select_victim ?(protect_last = false) sw =
  select ~protect_last (Value_switch.view sw)

let make ?(protect_last = false) _config =
  let name = if protect_last then "MRD1" else "MRD" in
  Policy.make ~name ~push_out:true (fun sw ~dest:_ ~value ->
      if not (Value_switch.is_full sw) then Decision.accept
      else
        (* The paper drops only when the buffer minimum is strictly bigger
           than the arriving value; on equality MRD pushes out, which is
           what makes it emulate LQD under unit values.  The minimum is a
           bitset read off the switch's value histogram (a full buffer is
           non-empty, so the default is never taken). *)
        if Value_switch.min_value_or sw ~default:max_int <= value then begin
          let victim = select ~protect_last (Value_switch.view sw) in
          if victim >= 0 then Decision.push_out victim else Decision.drop
        end
        else Decision.drop)
