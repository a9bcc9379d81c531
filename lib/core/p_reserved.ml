(* Two victim selections, one per admission branch, both answered from
   incremental indexes in O(log n):

   - pool branch (arrival's queue at/above its reservation): argmax over
     all queues of (pool overflow with the arrival virtually added to
     [dest], port work, index) — full ties keep the largest index;

   - reclaim branch (arrival still inside its reservation): argmax over
     queues other than [dest] of (pool overflow, port work), eligible only
     with positive overflow — full ties keep the *smallest* index.

   Both indexes are keyed lexicographic trees over (derived pool overflow,
   port work), differing only in the index tie.  The work column aliases
   the live aggregate; the overflow key is refreshed when the index
   settles.  All comparisons are explicit integer comparisons. *)

(* Pool slots used by queue j: packets above its reservation. *)
let overflow ~reserve sw j ~dest =
  let len = Proc_switch.queue_length sw j + if j = dest then 1 else 0 in
  max 0 (len - reserve)

let overflow_index ~key ~reserve ~tie sw =
  let v = Proc_switch.view sw in
  Proc_switch.find_index sw ~key (fun ~n ->
      let k1 = Array.make n 0 in
      Agg_index.create_lex ~n ~tie ~k1 ~k2:v.Proc_switch.view_works
        ~refresh:(fun j ->
          k1.(j) <- max 0 (v.Proc_switch.view_qlen.(j) - reserve))
        ())

let select_pool ~reserve idx sw ~dest =
  let c = Agg_index.top_excluding idx dest in
  if c < 0 then dest
  else begin
    let dov = overflow ~reserve sw dest ~dest
    and cov = max 0 (Proc_switch.queue_length sw c - reserve) in
    if cov > dov then c
    else if cov < dov then dest
    else begin
      let cw = Proc_switch.port_work sw c
      and dw = Proc_switch.port_work sw dest in
      if cw > dw || (cw = dw && c > dest) then c else dest
    end
  end

let select_reclaim ~reserve idx sw ~dest =
  let c = Agg_index.top_excluding idx dest in
  if c < 0 || max 0 (Proc_switch.queue_length sw c - reserve) = 0 then -1
  else c

let make ~reserve config =
  if reserve < 0 then invalid_arg "P_reserved.make: negative reserve";
  if Proc_config.n config * reserve > config.Proc_config.buffer then
    invalid_arg "P_reserved.make: reservations exceed the buffer";
  let name = Printf.sprintf "RSV(%d)" reserve in
  let pool =
    Agg_index.per_switch
      (overflow_index ~key:(Printf.sprintf "rsv:%d" reserve) ~reserve
         ~tie:`Largest_index)
  and reclaim =
    Agg_index.per_switch
      (overflow_index
         ~key:(Printf.sprintf "rsv-reclaim:%d" reserve)
         ~reserve ~tie:`Smallest_index)
  in
  Policy.make ~name ~push_out:true (fun sw ~dest ~value:_ ->
      if not (Proc_switch.is_full sw) then Decision.accept
      else
        (* Buffer full.  The arrival may displace pool usage only while its
           own queue is inside its reservation. *)
        if Proc_switch.queue_length sw dest >= reserve then begin
          (* The arrival itself would take a pool slot: evict from the queue
             using the most pool slots (LQD over the pool, virtual add). *)
          let victim = select_pool ~reserve (pool sw) sw ~dest in
          if victim <> dest && overflow ~reserve sw victim ~dest > 0 then
            Decision.push_out victim
          else Decision.drop
        end
        else begin
          (* Reserved slot owed to this arrival: reclaim it from the largest
             pool user (some queue must be above its reservation, since the
             buffer is full and this queue is below). *)
          let victim = select_reclaim ~reserve (reclaim sw) sw ~dest in
          if victim >= 0 then Decision.push_out victim
          else Decision.drop
        end)
