(* Two victim selections, one per admission branch, each one pass over the
   switch's own (queue length, port work) columns:

   - pool branch (arrival's queue at/above its reservation): argmax over
     all queues of (pool overflow with the arrival virtually added to
     [dest], port work, index) — full ties keep the largest index; the
     pass is seeded with [dest] at its virtual overflow;

   - reclaim branch (arrival still inside its reservation): argmax over
     queues other than [dest] of (pool overflow, port work), eligible only
     with positive overflow — strict replacement, so full ties keep the
     *smallest* index.

   All comparisons are explicit integer comparisons. *)

(* Pool slots used by queue j: packets above its reservation. *)
let overflow ~reserve sw j ~dest =
  let len = Proc_switch.queue_length sw j + if j = dest then 1 else 0 in
  max 0 (len - reserve)

let select_pool ~reserve (v : Proc_switch.view) ~dest =
  let qlen = v.view_qlen and works = v.view_works in
  let best = ref dest
  and bov = ref (max 0 (qlen.(dest) + 1 - reserve))
  and bw = ref works.(dest) in
  for j = 0 to Array.length qlen - 1 do
    let ov = max 0 (Array.unsafe_get qlen j - reserve) in
    if ov >= !bov && j <> dest then begin
      let w = Array.unsafe_get works j in
      if ov > !bov || w > !bw || (w = !bw && j > !best) then begin
        best := j;
        bov := ov;
        bw := w
      end
    end
  done;
  !best

let select_reclaim ~reserve (v : Proc_switch.view) ~dest =
  let qlen = v.view_qlen and works = v.view_works in
  let best = ref (-1) and bov = ref 0 and bw = ref max_int in
  for j = 0 to Array.length qlen - 1 do
    let ov = Array.unsafe_get qlen j - reserve in
    if ov >= !bov && ov > 0 && j <> dest then begin
      let w = Array.unsafe_get works j in
      if ov > !bov || w > !bw then begin
        best := j;
        bov := ov;
        bw := w
      end
    end
  done;
  !best

let make ~reserve config =
  if reserve < 0 then invalid_arg "P_reserved.make: negative reserve";
  if Proc_config.n config * reserve > config.Proc_config.buffer then
    invalid_arg "P_reserved.make: reservations exceed the buffer";
  let name = Printf.sprintf "RSV(%d)" reserve in
  Policy.make ~name ~push_out:true (fun sw ~dest ~value:_ ->
      if not (Proc_switch.is_full sw) then Decision.accept
      else
        (* Buffer full.  The arrival may displace pool usage only while its
           own queue is inside its reservation. *)
        if Proc_switch.queue_length sw dest >= reserve then begin
          (* The arrival itself would take a pool slot: evict from the queue
             using the most pool slots (LQD over the pool, virtual add). *)
          let victim = select_pool ~reserve (Proc_switch.view sw) ~dest in
          if victim <> dest && overflow ~reserve sw victim ~dest > 0 then
            Decision.push_out victim
          else Decision.drop
        end
        else begin
          (* Reserved slot owed to this arrival: reclaim it from the largest
             pool user (some queue must be above its reservation, since the
             buffer is full and this queue is below). *)
          let victim = select_reclaim ~reserve (Proc_switch.view sw) ~dest in
          if victim >= 0 then Decision.push_out victim
          else Decision.drop
        end)
