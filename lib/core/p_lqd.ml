(* argmax over queues of (virtual length, work, index); the virtual length
   counts the arriving packet as already added to [dest], and full ties keep
   the largest index (the decision contract a left-to-right scan with
   replacement on [key >= best] realises — the test-side oracle).

   The index is a keyed lexicographic tree over the switch's own
   (queue length, port work) aggregate columns — no refresh, both keys
   alias live state — so the argmax over every queue but [dest] costs
   O(log n); the destination then competes with its virtual length.  All
   key comparisons are explicit integer comparisons. *)

let index sw =
  let v = Proc_switch.view sw in
  Proc_switch.find_index sw ~key:"lqd" (fun ~n ->
      Agg_index.create_lex ~n ~k1:v.Proc_switch.view_qlen
        ~k2:v.Proc_switch.view_works ~refresh:ignore ())

let select idx sw ~dest =
  let c = Agg_index.top_excluding idx dest in
  if c < 0 then dest
  else begin
    let dlen = Proc_switch.queue_length sw dest + 1 in
    let clen = Proc_switch.queue_length sw c in
    if clen > dlen then c
    else if clen < dlen then dest
    else begin
      let cw = Proc_switch.port_work sw c
      and dw = Proc_switch.port_work sw dest in
      if cw > dw || (cw = dw && c > dest) then c else dest
    end
  end

let select_victim sw ~dest = select (index sw) sw ~dest

let make _config =
  let index = Agg_index.per_switch index in
  Policy.make ~name:"LQD" ~push_out:true (fun sw ~dest ~value:_ ->
      if not (Proc_switch.is_full sw) then Decision.accept
      else
        let victim = select (index sw) sw ~dest in
        if victim <> dest then Decision.push_out victim else Decision.drop)
