(* argmax over queues of W_j / V_j (total residual work over total value),
   the arrival's own queue counted virtually with its work and value
   added; ties toward the smaller port index (a left-to-right scan
   replacing only on a strictly larger ratio: the test-side oracle).  Every
   non-empty queue has V_j >= 1 and the destination's virtual value is
   >= 1, so the cross-multiplied comparison is exact.

   Ratio tree over the switch's own (W_j, V_j) columns — no refresh, both
   alias live state; an empty queue's V_j = 0 is the tree's ineligible
   mark.  The argmax over every queue but [dest] costs O(log n); the
   destination then competes with its virtual aggregates. *)

let index sw =
  let v = Proc_switch.view sw in
  Proc_switch.find_index sw ~key:"wvd" (fun ~n ->
      Agg_index.create_ratio ~n ~tie:`Smallest_index
        ~num:v.Proc_switch.view_qwork ~den:v.Proc_switch.view_qvalue
        ~k2:(Array.make n 0) ~refresh:ignore ())

let select idx sw ~dest ~value =
  let c = Agg_index.top_excluding idx dest in
  if c < 0 || Proc_switch.queue_length sw c = 0 then dest
  else begin
    let dw = Proc_switch.queue_work sw dest + Proc_switch.port_work sw dest
    and dv = Proc_switch.queue_value sw dest + value in
    let x = Proc_switch.queue_work sw c * dv
    and y = dw * Proc_switch.queue_value sw c in
    if x > y || (x = y && c < dest) then c else dest
  end

let make _config =
  let index = Agg_index.per_switch index in
  Policy.make ~name:"WVD" ~push_out:true (fun sw ~dest ~value ->
      if not (Proc_switch.is_full sw) then Decision.accept
      else
        let victim = select (index sw) sw ~dest ~value in
        if victim <> dest then Decision.push_out victim else Decision.drop)
