(* argmin over non-empty queues of the tail value — a FIFO queue's only
   evictable packet — ties toward the smaller port index (a left-to-right
   scan replacing only on a strictly smaller tail: the test-side oracle).

   Keyed lexicographic tree on (negated tail value, 0) with the
   smallest-index tie.  An empty queue carries min_int and ranks below
   every non-empty one (a tail value is in [1, max_value]).  The key is
   derived, refreshed when the index settles from the slab's value column. *)

let index sw =
  Proc_switch.find_index sw ~key:"mvd" (fun ~n ->
      let k1 = Array.make n min_int in
      Agg_index.create_lex ~n ~tie:`Smallest_index ~k1 ~k2:(Array.make n 0)
        ~refresh:(fun j ->
          let tail = Proc_switch.tail_value sw j in
          k1.(j) <- (if tail > 0 then -tail else min_int))
        ())

let make _config =
  let index = Agg_index.per_switch index in
  Policy.make ~name:"MVD" ~push_out:true (fun sw ~dest:_ ~value ->
      if not (Proc_switch.is_full sw) then Decision.accept
      else
        let victim = Agg_index.top (index sw) in
        let tail = Proc_switch.tail_value sw victim in
        if tail > 0 && tail < value then Decision.push_out victim
        else Decision.drop)
