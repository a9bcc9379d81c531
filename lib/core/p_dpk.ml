(* argmin over non-empty queues of the tail packet's density
   value / port work, ties toward the smaller port index (a left-to-right
   scan replacing only on a strictly smaller density: the test-side
   oracle) — that is, argmax of port work / tail value.

   Ratio tree over (port work, tail value): the work column aliases the
   configuration copy, the tail value is derived and refreshed when
   the index settles, and an empty queue's tail value 0 is the tree's
   ineligible mark. *)

let index sw =
  let v = Proc_switch.view sw in
  Proc_switch.find_index sw ~key:"dpk" (fun ~n ->
      let tail = Array.make n 0 in
      Agg_index.create_ratio ~n ~tie:`Smallest_index
        ~num:v.Proc_switch.view_works ~den:tail ~k2:(Array.make n 0)
        ~refresh:(fun j -> tail.(j) <- Proc_switch.tail_value sw j)
        ())

let make _config =
  let index = Agg_index.per_switch index in
  Policy.make ~name:"DPK" ~push_out:true (fun sw ~dest ~value ->
      if not (Proc_switch.is_full sw) then Decision.accept
      else
        (* Densities compared cross-multiplied: the arrival's
           value / work(dest) must beat the victim's strictly. *)
        let victim = Agg_index.top (index sw) in
        let tail = Proc_switch.tail_value sw victim in
        if
          tail > 0
          && value * Proc_switch.port_work sw victim
             > tail * Proc_switch.port_work sw dest
        then Decision.push_out victim
        else Decision.drop)
