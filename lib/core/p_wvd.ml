(* argmax over queues of W_j / V_j (total residual work over total value),
   the arrival's own queue counted virtually with its work and value
   added; ties toward the smaller port index (a left-to-right scan
   replacing only on a strictly larger ratio: the test-side oracle).  Every
   non-empty queue has V_j >= 1 and the destination's virtual value is
   >= 1, so the cross-multiplied comparison is exact.

   One pass over the switch's own (W_j, V_j) columns, seeded with the
   destination's virtual aggregates; an empty queue (V_j = 0) is not a
   candidate.  Since the incumbent may sit at a larger index than [j], the
   index tie is compared explicitly. *)

let select (v : Proc_switch.view) ~dest ~value =
  let qwork = v.view_qwork and qvalue = v.view_qvalue in
  let best = ref dest
  and bw = ref (qwork.(dest) + v.view_works.(dest))
  and bv = ref (qvalue.(dest) + value) in
  for j = 0 to Array.length qwork - 1 do
    let vj = Array.unsafe_get qvalue j in
    if vj > 0 && j <> dest then begin
      let wj = Array.unsafe_get qwork j in
      let x = wj * !bv and y = !bw * vj in
      if x > y || (x = y && j < !best) then begin
        best := j;
        bw := wj;
        bv := vj
      end
    end
  done;
  !best

let make _config =
  Policy.make ~name:"WVD" ~push_out:true (fun sw ~dest ~value ->
      if not (Proc_switch.is_full sw) then Decision.accept
      else
        let victim = select (Proc_switch.view sw) ~dest ~value in
        if victim <> dest then Decision.push_out victim else Decision.drop)
