(* argmax over queues of virtual length; ties towards the smaller minimum
   value, then the larger index — lexicographic (length, -min_value, index),
   with the arriving packet counted as already added to [dest] (a
   left-to-right scan with replacement on [key >= best] — the test-side
   oracle).

   Keyed lexicographic tree over (queue length, negated per-port minimum):
   the length column aliases the live aggregate, the negated minimum is a
   derived key refreshed when the index settles off the occupancy bitsets
   ("smaller minimum wins the tie" becomes "larger negated minimum wins").
   All comparisons are explicit integer comparisons. *)

let min_of sw j = Value_switch.queue_min_value_or sw j ~default:max_int

let index sw =
  let v = Value_switch.view sw in
  Value_switch.find_index sw ~key:"lqd" (fun ~n ->
      let negmin = Array.make n (-max_int) in
      Agg_index.create_lex ~n ~k1:v.Value_switch.view_qlen ~k2:negmin
        ~refresh:(fun j ->
          negmin.(j) <- -Value_switch.view_min_value_or v j ~default:max_int)
        ())

let select idx sw ~dest =
  let c = Agg_index.top_excluding idx dest in
  if c < 0 then dest
  else begin
    let dlen = Value_switch.queue_length sw dest + 1
    and clen = Value_switch.queue_length sw c in
    if clen > dlen then c
    else if clen < dlen then dest
    else begin
      let cm = min_of sw c and dm = min_of sw dest in
      if cm < dm || (cm = dm && c > dest) then c else dest
    end
  end

let select_victim sw ~dest = select (index sw) sw ~dest

let make _config =
  let index = Agg_index.per_switch index in
  Policy.make ~name:"LQD" ~push_out:true (fun sw ~dest ~value ->
      if not (Value_switch.is_full sw) then Decision.accept
      else
        let victim = select (index sw) sw ~dest in
        if victim <> dest then Decision.push_out victim
        else if min_of sw dest < value then Decision.push_out dest
        else Decision.drop)
