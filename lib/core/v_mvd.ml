(* argmin over eligible queues of (minimum value, -length, -index): the
   cheapest admitted packet, ties towards the longer queue, then the larger
   port index (a left-to-right scan with replacement on [key <= best] — the
   test-side oracle).

   Keyed lexicographic tree with ineligibility encoded as (min_int, 0); an
   eligible queue carries (negated minimum, length), and a non-empty
   queue's minimum is in [1, k] so its negation stays above min_int.  Among
   ineligible queues the index tie orders them.  Both keys are derived,
   refreshed when the index settles off the live aggregates and occupancy
   bitsets. *)

let index ~protect_last sw =
  let min_len = if protect_last then 2 else 1 in
  let v = Value_switch.view sw in
  let key = if protect_last then "mvd:protect" else "mvd" in
  Value_switch.find_index sw ~key (fun ~n ->
      let k1 = Array.make n 0 and k2 = Array.make n 0 in
      Agg_index.create_lex ~n ~k1 ~k2
        ~refresh:(fun j ->
          if v.Value_switch.view_qlen.(j) >= min_len then begin
            k1.(j) <- -Value_switch.view_min_value_or v j ~default:max_int;
            k2.(j) <- v.Value_switch.view_qlen.(j)
          end
          else begin
            k1.(j) <- min_int;
            k2.(j) <- 0
          end)
        ())

let select ~protect_last idx sw =
  let min_len = if protect_last then 2 else 1 in
  let c = Agg_index.top idx in
  if c < 0 || Value_switch.queue_length sw c < min_len then -1 else c

let select_victim ~protect_last sw =
  select ~protect_last (index ~protect_last sw) sw

let make ?(protect_last = false) _config =
  let name = if protect_last then "MVD1" else "MVD" in
  let index = Agg_index.per_switch (index ~protect_last) in
  Policy.make ~name ~push_out:true (fun sw ~dest:_ ~value ->
      if not (Value_switch.is_full sw) then Decision.accept
      else
        let victim = select ~protect_last (index sw) sw in
        if
          victim >= 0
          && Value_switch.queue_min_value_or sw victim ~default:0 < value
        then Decision.push_out victim
        else Decision.drop)
