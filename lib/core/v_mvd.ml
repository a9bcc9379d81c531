(* argmin over eligible queues of (minimum value, -length, -index): the
   cheapest admitted packet, ties towards the longer queue, then the larger
   port index (a left-to-right scan with replacement on [key <= best] — the
   test-side oracle).

   MVD reads no per-port minimum.  The buffer minimum [m]
   ({!Value_switch.min_value_or}) is the smallest key any queue can have,
   and a queue has it exactly when bit [m] of its occupancy bitset is set,
   so one pass over the length column with that bit test finds the victim:
   the longest eligible holder of [m], the later one on equal lengths.
   Only MVD1 can find no eligible holder (every queue holding [m] is a
   singleton); it then makes a second pass that reads the minimum of each
   eligible queue holding a level below [below].  Admission passes the
   arrival's value: a queue with nothing cheaper than the arrival can only
   lose to a drop, so its minimum is never read, and the victim is the same
   as the unbounded pass's whenever that one would push out. *)

let min_of v j = Value_switch.view_min_value_or v j ~default:max_int

(* Whether a bitset word in [base, base + upto) is non-zero. *)
let rec any_word occ ~base ~upto w =
  w < upto
  && (Array.unsafe_get occ (base + w) <> 0 || any_word occ ~base ~upto (w + 1))

let select ~protect_last (v : Value_switch.view) ~m ~below =
  let min_len = if protect_last then 2 else 1 in
  let qlen = v.view_qlen and occ = v.view_occ and wpp = v.view_wpp in
  let word = m / 63 and bit = 1 lsl (m mod 63) in
  let best = ref (-1) and bl = ref min_len in
  for j = 0 to Array.length qlen - 1 do
    let l = Array.unsafe_get qlen j in
    if l >= !bl && Array.unsafe_get occ ((j * wpp) + word) land bit <> 0 then begin
      best := j;
      bl := l
    end
  done;
  if !best >= 0 || not protect_last then !best
  else begin
    (* A level below [below] is a bit under [mask] in word [bword] or any
       bit in a lower word; past the last word, any level is. *)
    let bword = min (below / 63) (wpp - 1) in
    let mask = if below / 63 >= wpp then -1 else (1 lsl (below mod 63)) - 1 in
    let bm = ref max_int in
    for j = 0 to Array.length qlen - 1 do
      let l = Array.unsafe_get qlen j in
      let base = j * wpp in
      if
        l >= min_len
        && (Array.unsafe_get occ (base + bword) land mask <> 0
           || (bword > 0 && any_word occ ~base ~upto:bword 0))
      then begin
        let mj = min_of v j in
        if mj < !bm || (mj = !bm && l >= !bl) then begin
          best := j;
          bm := mj;
          bl := l
        end
      end
    done;
    !best
  end

let select_victim ~protect_last sw =
  let m = Value_switch.min_value_or sw ~default:0 in
  if m = 0 then -1
  else select ~protect_last (Value_switch.view sw) ~m ~below:max_int

let make ?(protect_last = false) _config =
  let name = if protect_last then "MVD1" else "MVD" in
  Policy.make ~name ~push_out:true (fun sw ~dest:_ ~value ->
      if not (Value_switch.is_full sw) then Decision.accept
      else
        (* Every eligible queue's minimum is >= the buffer minimum (a full
           buffer is non-empty, so the default is never taken): no victim
           beats an arrival the buffer minimum already matches. *)
        let m = Value_switch.min_value_or sw ~default:max_int in
        if m >= value then Decision.drop
        else
          let v = Value_switch.view sw in
          let victim = select ~protect_last v ~m ~below:value in
          if victim >= 0 && min_of v victim < value then
            Decision.push_out victim
          else Decision.drop)
