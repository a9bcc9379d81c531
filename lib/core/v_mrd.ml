(* argmax over eligible queues of |Q_j| / avg_j, compared as
   |Qa|^2 * sum_b > |Qb|^2 * sum_a in exact integer arithmetic (values and
   sizes are bounded by B * k, far from overflow on 63-bit ints); equal
   ratios prefer the queue with the smaller minimum value, then the larger
   index.  The exact cross-multiplied comparison is a total order on
   eligible queues, so a left-to-right scan (the test-side oracle) and the
   indexed read pick the same victim.

   The ratio order is not lexicographic, so it gets
   {!Agg_index.create_ratio}: a tree comparing the exact cross-multiplication
   num / den = len^2 / sum over int key columns.  The sum key doubles as the
   eligibility flag (0 = ineligible, ranking below all eligible queues; an
   eligible queue's sum is >= 1); the negated minimum is the tie key.  All
   three are derived, refreshed when the index settles off the live
   aggregates. *)

let index ~protect_last sw =
  let min_len = if protect_last then 2 else 1 in
  let v = Value_switch.view sw in
  let key = if protect_last then "mrd:protect" else "mrd" in
  Value_switch.find_index sw ~key (fun ~n ->
      let num = Array.make n 0
      and den = Array.make n 0
      and negmin = Array.make n 0 in
      Agg_index.create_ratio ~n ~num ~den ~k2:negmin
        ~refresh:(fun j ->
          let l = v.Value_switch.view_qlen.(j) in
          if l >= min_len then begin
            num.(j) <- l * l;
            den.(j) <- v.Value_switch.view_qsum.(j);
            negmin.(j) <- -Value_switch.view_min_value_or v j ~default:max_int
          end
          else begin
            num.(j) <- 0;
            den.(j) <- 0;
            negmin.(j) <- 0
          end)
        ())

let select ~protect_last idx sw =
  let min_len = if protect_last then 2 else 1 in
  let c = Agg_index.top idx in
  if c < 0 || Value_switch.queue_length sw c < min_len then -1 else c

let select_victim ?(protect_last = false) sw =
  select ~protect_last (index ~protect_last sw) sw

let make ?(protect_last = false) _config =
  let name = if protect_last then "MRD1" else "MRD" in
  let index = Agg_index.per_switch (index ~protect_last) in
  Policy.make ~name ~push_out:true (fun sw ~dest:_ ~value ->
      if not (Value_switch.is_full sw) then Decision.accept
      else
        (* The paper drops only when the buffer minimum is strictly bigger
           than the arriving value; on equality MRD pushes out, which is
           what makes it emulate LQD under unit values.  The minimum is a
           bitset read off the switch's value histogram (a full buffer is
           non-empty, so the default is never taken). *)
        if Value_switch.min_value_or sw ~default:max_int <= value then begin
          let victim = select ~protect_last (index sw) sw in
          if victim >= 0 then Decision.push_out victim else Decision.drop
        end
        else Decision.drop)
