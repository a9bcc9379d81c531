(* argmax over eligible queues of (per-packet work, length, index); no
   virtual add — BPD's victim does not depend on the arrival.  Full ties
   keep the largest index (a left-to-right scan with replacement on
   [key >= best] — the test-side oracle).

   Keyed lexicographic tree with ineligibility encoded in the keys — an
   ineligible queue carries (min_int, 0), ranking below every eligible one
   (port work >= 1 > min_int) and among its peers by the index tie.  Both
   keys are derived, so a refresh each time the index settles recomputes
   them from the live aggregates. *)

let index ~protect_last sw =
  let min_len = if protect_last then 2 else 1 in
  let v = Proc_switch.view sw in
  let key = if protect_last then "bpd:protect" else "bpd" in
  Proc_switch.find_index sw ~key (fun ~n ->
      let k1 = Array.make n 0 and k2 = Array.make n 0 in
      Agg_index.create_lex ~n ~k1 ~k2
        ~refresh:(fun j ->
          if v.Proc_switch.view_qlen.(j) >= min_len then begin
            k1.(j) <- v.Proc_switch.view_works.(j);
            k2.(j) <- v.Proc_switch.view_qlen.(j)
          end
          else begin
            k1.(j) <- min_int;
            k2.(j) <- 0
          end)
        ())

let select ~protect_last idx sw =
  let min_len = if protect_last then 2 else 1 in
  let c = Agg_index.top idx in
  if c < 0 || Proc_switch.queue_length sw c < min_len then -1 else c

let select_victim ~protect_last sw =
  select ~protect_last (index ~protect_last sw) sw

let make ?(protect_last = false) _config =
  let name = if protect_last then "BPD1" else "BPD" in
  let index = Agg_index.per_switch (index ~protect_last) in
  Policy.make ~name ~push_out:true (fun sw ~dest ~value:_ ->
      if not (Proc_switch.is_full sw) then Decision.accept
      else
        let victim = select ~protect_last (index sw) sw in
        if victim < 0 then Decision.drop
        else
          (* "i <= j" in the work-sorted port order, i.e. the arriving
             packet's (work, port) does not come after the victim's. *)
          let aw = Proc_switch.port_work sw dest
          and vw = Proc_switch.port_work sw victim in
          if aw < vw || (aw = vw && dest <= victim) then
            Decision.push_out victim
          else Decision.drop)
